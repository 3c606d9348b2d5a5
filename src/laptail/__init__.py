"""Distribution estimation from Laplace transforms of interval totals.

The pipeline: empirical transform of i.i.d. nonnegative observations, a
continuous (branch-tracked) logarithm along a vertical contour, a known map
to the transform of the hidden quantity of interest, and truncated contour
inversion back to a distribution function. Shipped maps cover the
stationary workload of a single-server queue observed through per-interval
inflow totals and decompounding of Poisson, binomial and negative binomial
compound sums.
"""
from .errors import (CapacityError, DomainError, DomainEventFailed,
                     EmptyResult, EstimationError, GridTooCoarse,
                     NearZeroTransform, ParameterError, SampleFileError)
from .estimator import (EstimateResult, EstimatorConfig, censored_increments,
                        empirical_workload_estimator, estimate_cdf,
                        estimate_cdf_batch)
from .inversion import bromwich_details, build_grid
from .logtrack import track_log
from .simulation import (BinomialCounts, NegBinomialCounts, PoissonCounts,
                         mm1_percentile, mm1_stationary_cdf, replication_rng,
                         sample_compound, sample_compound_poisson,
                         simulate_mg1_workload, workload_on_grid)
from .transform_maps import (BinomialDecompound, Mg1Workload,
                             NegBinomialDecompound, PoissonDecompound,
                             apply_map, domain_check)
from .transforms import (ContourGrid, Deterministic, Exponential, Gamma,
                         SampleSet, TransformValues, empirical_transform_eval,
                         empirical_transform_grid, load_samples, save_samples)

__version__ = "0.1.0"
