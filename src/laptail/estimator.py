"""Plug-in distribution estimators built from interval-total samples.

estimate_cdf_batch is the one estimator body. It checks the map's domain
event, builds one contour grid on Re s = CONTOUR_C sized for the largest w,
maps the empirical transform through the branch-tracked log, and inverts
the mapped values at every w. estimate_cdf is its one-point case; a tail
probability is 1 - value. The defining contract is that neither raises:
any failure (domain event, log tracking, grid capacity, non-finite
arithmetic) folds into the value 0 with diagnostics saying which path was
taken, and every other value is clipped to [0, 1]. The comparison
estimators used in the queueing study (direct empirical tail, censored
increments) live here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (CapacityError, DomainError, DomainEventFailed, EmptyResult,
                     NearZeroTransform, ParameterError)
from .inversion import bromwich_details, build_grid
from .transform_maps import TransformMap, apply_map, domain_check
from .transforms import SampleSet

# Abscissa c of the line Re s = c every estimate inverts along; any fixed
# c > 0 gives the O(n^{-1/2} log(n + 1)) rate, and the goldens use c = 1.
CONTOUR_C = 1.0


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings of the plug-in estimator.

    w is the evaluation point of estimate_cdf; estimate_cdf_batch takes its
    points separately and ignores it. t_max_override replaces the default
    contour truncation sqrt(n); the default tracks the sample size so that
    truncation error and sampling error shrink together. The contour
    abscissa is CONTOUR_C for every estimate, not a setting.
    """

    w: float
    t_max_override: float | None = None

    def __post_init__(self):
        if not (self.w > 0 and math.isfinite(self.w)):
            raise ParameterError("evaluation point w must be positive and finite")
        if self.t_max_override is not None and not (
                self.t_max_override > 0 and math.isfinite(self.t_max_override)):
            raise ParameterError("t_max_override must be positive and finite")


@dataclass(frozen=True)
class EstimateResult:
    """One estimate with full diagnostics.

    on_domain_event is False exactly when the fallback path was taken; then
    value is 0.0, raw_value is None and fallback_reason says why
    ('domain_event', 'log_tracking', 'capacity' or 'nonfinite'). Otherwise
    value is the inversion output clipped to [0, 1], and raw_value is the
    unclipped output, equal to value when clipping changed nothing.
    """

    value: float
    raw_value: float | None
    on_domain_event: bool
    clipped: bool
    t_max_used: float
    n: int
    fallback_reason: str | None = None

    @property
    def imag_residual(self) -> float:
        """Always 0.0: the contour is sampled on y >= 0 only, by conjugate
        symmetry, so there is no symmetry defect to measure.

        Kept read-only only until the benchmark stops reading it (ROADMAP
        item 1).
        """
        return 0.0


def _fallback(t_max: float, n: int, reason: str) -> EstimateResult:
    return EstimateResult(value=0.0, raw_value=None,
                          on_domain_event=False, clipped=False,
                          t_max_used=t_max, n=n, fallback_reason=reason)


def _finish(raw: float, t_max: float, n: int) -> EstimateResult:
    if not math.isfinite(raw):
        return _fallback(t_max, n, "nonfinite")
    value = min(1.0, max(0.0, raw))
    clipped = value != raw
    return EstimateResult(value=value, raw_value=raw if clipped else value,
                          on_domain_event=True, clipped=clipped,
                          t_max_used=t_max, n=n)


def estimate_cdf(samples: SampleSet, transform_map: TransformMap,
                 config: EstimatorConfig) -> EstimateResult:
    """Estimate F(config.w) of the mapped hidden law: estimate_cdf_batch at
    the single point config.w."""
    return estimate_cdf_batch(samples, transform_map, [config.w], config)[0]


def estimate_cdf_batch(samples: SampleSet, transform_map: TransformMap,
                       ws: Sequence[float],
                       base_config: EstimatorConfig) -> list[EstimateResult]:
    """Estimate F(w) of the mapped hidden law at each w in ``ws``.

    One grid is built, with step min(c/4, pi/w) at the largest w, and one
    inversion pass evaluates every w on the same mapped transform values.
    That bound does not increase with w, so the grid is fine enough for
    every smaller w. ``ws`` may be any one-dimensional
    sequence, a numpy array too; results come back in its order, and an
    empty one gives an empty list. The w of ``base_config`` is not used.

    Never raises on statistical or numerical failure; see EstimateResult.
    Programming errors (wrong types) still surface normally.
    """
    ws = list(ws)
    if not ws:
        return []
    if any(not (w > 0 and math.isfinite(w)) for w in ws):
        raise ParameterError("all evaluation points must be positive and finite")
    n = samples.n
    t_max = base_config.t_max_override or math.sqrt(n)
    # nonfinite intermediates are legal here: they fold into the fallback,
    # so floating warnings are noise
    with np.errstate(all="ignore"):
        try:
            domain_check(transform_map, samples)
            grid = build_grid(CONTOUR_C, t_max, max(ws))
            psi = apply_map(transform_map, samples, grid)
        except DomainEventFailed:
            return [_fallback(t_max, n, "domain_event") for _ in ws]
        except CapacityError:
            return [_fallback(t_max, n, "capacity") for _ in ws]
        except (NearZeroTransform, DomainError):
            return [_fallback(t_max, n, "log_tracking") for _ in ws]
        plateau = transform_map.plateau(samples)
        inverted = bromwich_details(psi, ws, plateau=plateau)
    return [_finish(raw, t_max, n) for raw in inverted.values]


# --------------------------------------------------------------------------
# Comparison estimators
# --------------------------------------------------------------------------

def empirical_workload_estimator(workload_samples: SampleSet, w: float) -> float:
    """Fraction of sampled workloads strictly above w."""
    if not (w >= 0 and math.isfinite(w)):
        raise ParameterError("threshold w must be nonnegative and finite")
    return float(np.count_nonzero(workload_samples.values > w)
                 / workload_samples.n)


def censored_increments(workload_samples: SampleSet, delta: float) -> SampleSet:
    """Per-interval inflow recovered from consecutive workload readings.

    When the previous reading is at least delta the server worked the whole
    interval, so reading_i - (reading_{i-1} - delta) is exactly the work
    that arrived; smaller predecessors hide an unknown idle period and are
    dropped. Tiny negative values from float noise are snapped to 0.
    EmptyResult when no index qualifies.
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ParameterError("delta must be positive and finite")
    y = workload_samples.values
    if y.size < 2:
        raise EmptyResult("need at least two workload readings")
    prev = y[:-1]
    keep = prev >= delta
    if not np.any(keep):
        raise EmptyResult("no interval has its full drain observable")
    q = y[1:][keep] - (prev[keep] - delta)
    return SampleSet(np.maximum(q, 0.0))

