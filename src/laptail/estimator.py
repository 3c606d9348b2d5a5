"""Plug-in distribution estimators built from interval-total samples.

estimate_cdf_batch is the one estimator body. It checks the map's domain
event, builds one contour grid sized for the largest w, maps the empirical
transform through the branch-tracked log, and inverts the mapped values at
every w. estimate_cdf is its one-point case; a tail probability is
1 - value. The defining contract is that neither raises: any failure
(domain event, log tracking, grid capacity, non-finite arithmetic) folds
into a configured fallback value with diagnostics saying which path was
taken. The comparison estimators used in the queueing study (direct
empirical tail, censored increments) live here too.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CapacityError, DomainError, DomainEventFailed, EmptyResult,
                     NearZeroTransform, ParameterError)
from .inversion import InversionResult, bromwich_details, build_grid
from .transform_maps import TransformMap, apply_map, domain_check
from .transforms import SampleSet


@dataclass(frozen=True)
class EstimatorConfig:
    """Settings of the plug-in estimator.

    w is the evaluation point of estimate_cdf; estimate_cdf_batch takes its
    points separately and ignores it. t_max_override replaces the default
    contour truncation sqrt(n); the default tracks the sample size so that
    truncation error and sampling error shrink together. fallback_value is
    returned whenever estimation is impossible; clip projects the raw
    inversion output onto [0, 1].
    """

    w: float
    c: float = 1.0
    t_max_override: float | None = None
    fallback_value: float = 0.0
    clip: bool = True

    def __post_init__(self):
        if not (self.w > 0 and math.isfinite(self.w)):
            raise ParameterError("evaluation point w must be positive")
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ParameterError("contour abscissa c must be positive")
        if self.t_max_override is not None and not (
                self.t_max_override > 0 and math.isfinite(self.t_max_override)):
            raise ParameterError("t_max_override must be positive and finite")
        if not 0.0 <= self.fallback_value <= 1.0:
            raise ParameterError("fallback_value must be in [0, 1]")

    def t_max_for(self, n: int) -> float:
        return self.t_max_override if self.t_max_override is not None else math.sqrt(n)


@dataclass(frozen=True)
class EstimateResult:
    """One estimate with full diagnostics.

    on_domain_event is False exactly when the fallback path was taken; then
    value equals the configured fallback, raw_value is None and
    fallback_reason says why ('domain_event', 'log_tracking', 'capacity' or
    'nonfinite'). raw_value records the pre-clip inversion output whenever
    clipping changed it.
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


def _fallback(config: EstimatorConfig, n: int, reason: str) -> EstimateResult:
    return EstimateResult(value=config.fallback_value, raw_value=None,
                          on_domain_event=False, clipped=False,
                          t_max_used=config.t_max_for(n), n=n,
                          fallback_reason=reason)


def _finish(details: InversionResult, config: EstimatorConfig,
            n: int) -> EstimateResult:
    raw = details.value
    if not math.isfinite(raw):
        return _fallback(config, n, "nonfinite")
    if config.clip:
        value = min(1.0, max(0.0, raw))
    else:
        value = raw
    clipped = value != raw
    return EstimateResult(value=value, raw_value=raw if clipped else value,
                          on_domain_event=True, clipped=clipped,
                          t_max_used=config.t_max_for(n), n=n)


def estimate_cdf(samples: SampleSet, transform_map: TransformMap,
                 config: EstimatorConfig) -> EstimateResult:
    """Estimate F(config.w) of the mapped hidden law: estimate_cdf_batch at
    the single point config.w."""
    return estimate_cdf_batch(samples, transform_map, [config.w], config)[0]


def estimate_cdf_batch(samples: SampleSet, transform_map: TransformMap,
                       ws: list[float],
                       base_config: EstimatorConfig) -> list[EstimateResult]:
    """Estimate F(w) of the mapped hidden law at each w in ``ws``.

    One grid is sized for the largest w (the tightest step bound) and
    built once, and every w inverts the same mapped transform values. The
    step bound does not increase with w, so the grid is fine enough for
    every smaller w. Results come back in the order of ``ws``; the w of
    ``base_config`` is not used.

    Never raises on statistical or numerical failure; see EstimateResult.
    Programming errors (wrong types) still surface normally.
    """
    if not ws:
        return []
    if any(not (w > 0 and math.isfinite(w)) for w in ws):
        raise ParameterError("all evaluation points must be positive")
    n = samples.n
    # nonfinite intermediates are legal here: they fold into the fallback,
    # so floating warnings are noise
    with np.errstate(all="ignore"):
        try:
            domain_check(transform_map, samples)
            grid = build_grid(base_config.c, base_config.t_max_for(n), max(ws))
            psi = apply_map(transform_map, samples, grid)
        except DomainEventFailed:
            return [_fallback(base_config, n, "domain_event") for _ in ws]
        except CapacityError:
            return [_fallback(base_config, n, "capacity") for _ in ws]
        except (NearZeroTransform, DomainError):
            return [_fallback(base_config, n, "log_tracking") for _ in ws]
        plateau = transform_map.plateau(samples)
        inverted = [bromwich_details(psi, w, plateau=plateau) for w in ws]
    return [_finish(details, base_config, n) for details in inverted]


# --------------------------------------------------------------------------
# Comparison estimators
# --------------------------------------------------------------------------

def empirical_workload_estimator(workload_samples: SampleSet, w: float) -> float:
    """Fraction of sampled workloads strictly above w."""
    if not (w >= 0 and math.isfinite(w)):
        raise ParameterError("threshold w must be nonnegative")
    return float(np.mean(workload_samples.values > w))


def censored_increments(workload_samples: SampleSet, delta: float) -> SampleSet:
    """Per-interval inflow recovered from consecutive workload readings.

    When the previous reading is at least delta the server worked the whole
    interval, so reading_i - (reading_{i-1} - delta) is exactly the work
    that arrived; smaller predecessors hide an unknown idle period and are
    dropped. Tiny negative values from float noise are snapped to 0.
    EmptyResult when no index qualifies.
    """
    if not delta > 0:
        raise ParameterError("delta must be positive")
    y = workload_samples.values
    if y.size < 2:
        raise EmptyResult("need at least two workload readings")
    prev = y[:-1]
    keep = prev >= delta
    if not np.any(keep):
        raise EmptyResult("no interval has its full drain observable")
    q = y[1:][keep] - (prev[keep] - delta)
    return SampleSet(np.maximum(q, 0.0))

