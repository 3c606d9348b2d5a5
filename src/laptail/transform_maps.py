"""Maps from an observed transform to the transform of a hidden law.

Each map takes the branch-tracked log of the empirical transform of the
observed variable and produces transform values of the quantity we actually
want: the stationary workload of a queue fed by the observed increments, or
the jump-size law of a compound sum observed per time slot. A map describes
itself through three methods:

- ``check(samples)`` raises DomainEventFailed when the sample fails the
  map's domain event, the sample condition under which the formula is well
  defined; outside it the estimator falls back rather than raising;
- ``plateau(samples)`` is the limit of the mapped transform as
  |s| -> infinity along the contour, which the inversion subtracts;
- ``values(log_path, samples)`` applies the map's formula to a tracked log.

Each map's formula lives in its ``values``; of the sample it reads only a
summary (``mean`` or ``zero_fraction``), so a stand-in with that attribute
checks the formula against exact transforms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DomainEventFailed, ParameterError
from .logtrack import track_log
from .transforms import (ContourGrid, SampleSet, TransformValues,
                         empirical_transform_eval, empirical_transform_grid)


@dataclass(frozen=True)
class Mg1Workload:
    """Stationary workload of a queue draining delta per slot.

    Observations are the total work arriving per slot; the output transform
    is the generalized Pollaczek-Khinchine formula with the arriving-work
    transform replaced by its empirical estimate.
    """

    delta: float

    def __post_init__(self):
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ParameterError("drain per slot delta must be positive and finite")

    def check(self, samples: SampleSet) -> None:
        """Stability event: estimated load below 1, i.e. 0 <= mean < delta."""
        if not 0.0 <= samples.mean < self.delta:
            raise DomainEventFailed(
                f"sample mean {samples.mean:.6g} must lie in [0, delta={self.delta:g})")

    def plateau(self, samples: SampleSet) -> float:
        """The workload law has an atom at zero of mass 1 - mean/delta."""
        return 1.0 - samples.mean / self.delta

    def values(self, log_path: TransformValues, samples: SampleSet) -> np.ndarray:
        """psi(s) = s (1 - mean/delta) / (s + log_transform(s) / delta)."""
        s = log_path.grid.points
        return (s * (1.0 - samples.mean / self.delta)
                / (s + log_path.values / self.delta))


class _Decompound:
    """Domain event and plateau shared by the decompounding maps."""

    def check(self, samples: SampleSet) -> None:
        """Zero-slot event: the fraction of empty slots must be in (0, 1)."""
        zf = samples.zero_fraction
        if not 0.0 < zf < 1.0:
            raise DomainEventFailed(
                f"fraction of zero observations is {zf:g}; need some but not all "
                "slots empty to estimate the count rate")

    def plateau(self, samples: SampleSet) -> float:
        """The jump-size laws are assumed atomless at zero."""
        return 0.0


@dataclass(frozen=True)
class PoissonDecompound(_Decompound):
    """Jump sizes of a Poisson compound sum observed per unit slot.

    The count intensity is itself estimated from the fraction of empty
    slots, so the map needs no parameters.
    """

    def values(self, log_path: TransformValues, samples: SampleSet) -> np.ndarray:
        """psi(s) = 1 + log_transform(s) / lambda_hat, lambda_hat = -ln(zero_frac)."""
        lam_hat = -np.log(samples.zero_fraction)
        return 1.0 + log_path.values / lam_hat


@dataclass(frozen=True)
class _TrialDecompound(_Decompound):
    """The trial count big_m of the binomial-type decompounding maps, and
    the M-th root of the zero fraction that both their formulas take."""

    big_m: int

    def __post_init__(self):
        if not (isinstance(self.big_m, int) and self.big_m >= 1):
            raise ParameterError("big_m must be an integer >= 1")

    def _root_q(self, samples: SampleSet) -> float:
        return samples.zero_fraction ** (1.0 / self.big_m)


@dataclass(frozen=True)
class BinomialDecompound(_TrialDecompound):
    """Jump sizes of a binomial(big_m) compound sum observed per slot."""

    def values(self, log_path: TransformValues, samples: SampleSet) -> np.ndarray:
        """Invert transform(s) = (q + (1-q) psi(s))^M with q^M = zero_frac.

        The continuous M-th root exp(log/M) keeps psi continuous on the
        contour.
        """
        root_q = self._root_q(samples)
        root = np.exp(log_path.values / self.big_m)
        return (root - root_q) / (1.0 - root_q)


@dataclass(frozen=True)
class NegBinomialDecompound(_TrialDecompound):
    """Jump sizes of a negative binomial(big_m) compound sum per slot."""

    def values(self, log_path: TransformValues, samples: SampleSet) -> np.ndarray:
        """Invert transform(s) = ((1-p) / (1 - p psi(s)))^M with (1-p)^M = zero_frac."""
        root_q = self._root_q(samples)
        inv_root = np.exp(-log_path.values / self.big_m)
        return (1.0 - root_q * inv_root) / (1.0 - root_q)


TransformMap = Mg1Workload | PoissonDecompound | BinomialDecompound | NegBinomialDecompound


# --------------------------------------------------------------------------
# Sample-level application
# --------------------------------------------------------------------------

def domain_check(transform_map: TransformMap, samples: SampleSet) -> None:
    """Raise DomainEventFailed when the map is undefined on this sample."""
    transform_map.check(samples)


def _curvature_bound(samples: SampleSet, c: float) -> float:
    """M2 = (1/n) sum x^2 e^{-c x}, a bound on |d^2/dy^2| of the empirical
    transform at s = c + iy. Formed as (x e^{-c x}) x, which cannot
    overflow since x e^{-c x} <= 1 / (c e)."""
    x = samples.values
    return float(np.mean((x * np.exp(-c * x)) * x))


def apply_map(transform_map: TransformMap, samples: SampleSet,
              grid: ContourGrid) -> TransformValues:
    """Empirical transform -> tracked log -> mapped transform values.

    The log is tracked on the grid transform. Where that has a wide step,
    ``track_log`` gets the bound M2 on |f''| from ``_curvature_bound``,
    which runs only then, and accepts each wide step whose chord M2
    certifies. Where one is not certified, it tracks the log on the grid
    4 times finer, whose values the grid transform's result gives from the
    samples it already sorted and spread (``refined``), and bisects the
    steps still wide and uncertified there. The midpoints are summed by
    ``empirical_transform_eval`` from that same spread, given the grid
    transform's result, or directly where its runs span more than a turn.
    The caller checks the map's domain event first (``domain_check``); on
    a sample outside it the formula's values mean nothing. Log-tracking
    failures (NearZeroTransform, DomainError) propagate.
    """
    observed = empirical_transform_grid(samples, grid)
    log_path = track_log(
        partial(empirical_transform_eval, samples, grid_transform=observed),
        grid, observed.values, observed.refined,
        partial(_curvature_bound, samples, grid.c))
    return TransformValues(grid, transform_map.values(log_path, samples))
