"""The benchmark's workloads: jobs built from a seed, run, and checked.

Every workload is a closed loop from one client: the harness runs one job,
waits for it, checks it and only then starts the next. Jobs are built in
set-up from the workload seed with numpy alone, so the library receives only
finished inputs and a change to ``laptail.simulation`` cannot change them.
Each output is checked against the ``EstimateResult`` contract (the
coherence check of acceptance criterion 9) and against a closed-form oracle
computed here, not by the library.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import special

import laptail
import laptail.studies

FALLBACK_REASONS = ("domain_event", "log_tracking", "capacity", "nonfinite")

# M/M/1 queue observed through per-slot work totals, as in the paper's
# queueing study: exponential(MU) jobs, slot width DELTA.
MU = 20.0
DELTA = 0.1
PERCENTILES = (0.9, 0.99, 0.999)

# Decompounding points and the three count/jump models the jobs rotate
# through: (label, count sampler, jump shape, jump scale, map).
DECOMPOUND_WS = (0.5, 1.0, 1.5)
DECOMPOUND_CASES = (
    ("poisson", lambda rng, n: rng.poisson(1.0, n), 1.0, 1.0,
     laptail.PoissonDecompound()),
    # numpy counts failures before M successes of probability 1 - p
    ("negbinomial", lambda rng, n: rng.negative_binomial(3, 1.0 - 0.4, n),
     2.0, 0.5, laptail.NegBinomialDecompound(3)),
    # q^M = 0.25^4 puts the true transform close to 0 on the contour, so
    # log tracking has to bisect
    ("binomial", lambda rng, n: rng.binomial(4, 0.75, n), 20.0, 0.05,
     laptail.BinomialDecompound(4)),
)


def mm1_cdf(lam: float, w: float) -> float:
    """Stationary workload CDF of the M/M/1 queue, P(Y <= w)."""
    return 1.0 - (lam / MU) * math.exp(-(MU - lam) * w)


def mm1_percentile(lam: float, p: float) -> float:
    return math.log((lam / MU) / (1.0 - p)) / (MU - lam)


def slot_totals(rng: np.random.Generator, lam: float, n: int) -> np.ndarray:
    """Work arriving per slot: a Poisson(lam*DELTA) sum of exponential jobs."""
    return rng.gamma(rng.poisson(lam * DELTA, n), 1.0 / MU)


@dataclass(frozen=True)
class Call:
    """One ``estimate_cdf_batch`` call and the true CDF at each point."""

    samples: laptail.SampleSet
    transform_map: object
    ws: tuple[float, ...]
    truths: tuple[float, ...]


def mg1_call(rng: np.random.Generator, lam: float, n: int) -> Call:
    ws = tuple(mm1_percentile(lam, p) for p in PERCENTILES)
    return Call(laptail.SampleSet(slot_totals(rng, lam, n)),
                laptail.Mg1Workload(DELTA), ws,
                tuple(mm1_cdf(lam, w) for w in ws))


def decompound_call(rng: np.random.Generator, case: int, n: int) -> Call:
    _, counts, shape, scale, transform_map = DECOMPOUND_CASES[case]
    totals = rng.gamma(shape * counts(rng, n), scale)
    truths = tuple(float(special.gammainc(shape, w / scale))
                   for w in DECOMPOUND_WS)
    return Call(laptail.SampleSet(totals), transform_map, DECOMPOUND_WS, truths)


@dataclass
class Checked:
    """What the checks found in one job's output."""

    errors: list[float]
    fallbacks: int
    estimates: int
    violations: list[str]


def fingerprint(result) -> tuple:
    """Exact identity of an output: floats by their bits, nothing rounded."""
    if isinstance(result, float):
        return ("f", result.hex())
    if isinstance(result, laptail.EstimateResult):
        return ("r",) + tuple(fingerprint(getattr(result, k)) for k in (
            "value", "raw_value", "on_domain_event", "clipped",
            "imag_residual", "n", "fallback_reason"))
    if isinstance(result, dict):
        return tuple((k, fingerprint(v)) for k, v in sorted(result.items()))
    if isinstance(result, (list, tuple)):
        return tuple(fingerprint(v) for v in result)
    return (type(result).__name__, result)


def result_violations(r, n: int) -> list[str]:
    """Breaches of the EstimateResult contract checked by criterion 9."""
    if not isinstance(r, laptail.EstimateResult):
        return [f"not an EstimateResult: {type(r).__name__}"]
    bad = []
    if not (math.isfinite(r.value) and 0.0 <= r.value <= 1.0):
        bad.append(f"value {r.value!r} outside [0, 1]")
    if r.on_domain_event != (r.fallback_reason is None):
        bad.append("on_domain_event disagrees with fallback_reason")
    if not (r.on_domain_event or r.raw_value is None):
        bad.append("fallback carries a raw_value")
    if r.fallback_reason not in (None,) + FALLBACK_REASONS:
        bad.append(f"unknown fallback_reason {r.fallback_reason!r}")
    if r.n != n:
        bad.append(f"n = {r.n}, sample has {n}")
    return bad


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``n`` is the sample size a job's library call receives and ``pool`` the
    number of distinct jobs built in set-up; the timed loop cycles through
    the pool. ``err_limit`` bounds the mean estimate error over the pool: it
    sits several standard errors above the mean seen over many seeds, so it
    trips on broken arithmetic, not on sampling noise. ``required_spans``
    must each be recorded by a traced run and ``must_be_positive`` per-layer
    metrics must be above 0, or the trace missed what the workload is for.
    ``stress`` names and tests the layer balance the workload was chosen
    for; it is reported, not enforced, since a faster layer may change it.
    """

    name: str
    why: str
    n: int
    pool: int
    err_limit: float
    required_spans: tuple[str, ...]
    must_be_positive: tuple[str, ...]
    stress: Callable
    build_job: Callable
    run: Callable
    check: Callable


ESTIMATE_SPANS = (
    "estimator.estimate_cdf_batch", "transform_maps.domain_check",
    "transform_maps.apply_map", "transforms.empirical_transform_grid",
    "logtrack.track_log", "inversion.build_grid", "inversion.bromwich_details",
)


def run_calls(calls: list[Call]) -> list:
    config = laptail.EstimatorConfig(w=1.0)
    return [laptail.estimate_cdf_batch(c.samples, c.transform_map, list(c.ws),
                                       config)
            for c in calls]


def check_calls(calls: list[Call], out: list) -> Checked:
    checked = Checked([], 0, 0, [])
    if len(out) != len(calls):
        checked.violations.append(f"{len(out)} results for {len(calls)} calls")
        return checked
    for call, results in zip(calls, out):
        if len(results) != len(call.ws):
            checked.violations.append(
                f"{len(results)} estimates for {len(call.ws)} points")
            continue
        for r, truth in zip(results, call.truths):
            bad = result_violations(r, call.samples.n)
            checked.violations.extend(bad)
            checked.estimates += 1
            if bad:
                continue
            checked.errors.append(abs(r.value - truth))
            checked.fallbacks += not r.on_domain_event
    return checked


def run_study(job: tuple[int, int]) -> list[dict]:
    seed, n = job
    return laptail.studies.table2_rows(seed=seed, reps=1, n=n, workers=1)


def check_study(job: tuple[int, int], rows: list[dict]) -> Checked:
    checked = Checked([], 0, 0, [])
    expected = 3 * len(PERCENTILES) * 3
    if len(rows) != expected:
        checked.violations.append(f"{len(rows)} rows, expected {expected}")
    for row in rows:
        err = row.get("mean_rel_error")
        if not (isinstance(err, float) and math.isfinite(err) and err >= 0.0):
            checked.violations.append(f"bad mean_rel_error {err!r}")
        elif row.get("estimator") == "laplace":
            checked.errors.append(err)
            checked.estimates += 1
    return checked


def _mg1_small_job(rng, index, n):
    # one call per (load, size) cell, so job times are not bimodal
    return [mg1_call(rng, lam, size)
            for lam in (10.0, 18.0) for size in (n // 10, n)]


def _decompound_job(rng, index, n):
    return [decompound_call(rng, index % len(DECOMPOUND_CASES), n)]


def _study_job(rng, index, n):
    return int(rng.integers(0, 2**31)), n


WORKLOADS = {w.name: w for w in (
    Workload(
        name="mg1-small",
        why="M/M/1 at rho 0.5/0.9 and n 100/1000, T=sqrt(n): fixed per-call "
            "costs and the domain-event fallback path show",
        n=1000, pool=128, err_limit=0.12,
        required_spans=ESTIMATE_SPANS,
        must_be_positive=("transform_maps.domain_events",),
        stress=lambda m: ("estimator.ms - transforms.grid_ms >= 0.1 * estimator.ms",
                          m["estimator.ms"] - m["transforms.grid_ms"]
                          >= 0.1 * m["estimator.ms"]),
        build_job=_mg1_small_job, run=run_calls, check=check_calls),
    Workload(
        name="decompound-mix",
        why="Poisson, negative binomial and binomial decompounding at n=2000: "
            "the near-zero binomial transform makes log tracking bisect",
        n=2000, pool=150, err_limit=0.07,
        required_spans=ESTIMATE_SPANS + ("transforms.empirical_transform_eval",),
        must_be_positive=("logtrack.refine_evals",),
        stress=lambda m: ("logtrack.self_ms + logtrack.refine_ms >= 0.2 * estimator.ms",
                          m["logtrack.self_ms"] + m["logtrack.refine_ms"]
                          >= 0.2 * m["estimator.ms"]),
        build_job=_decompound_job, run=run_calls, check=check_calls),
    Workload(
        name="study-table2",
        why="one table2 study replication (3 loads, n=1e4, T=400): the only "
            "workload that runs the simulation and studies layers",
        n=10**4, pool=2, err_limit=3.0,
        required_spans=ESTIMATE_SPANS + (
            "studies.table2_rows", "simulation.sample_compound_poisson",
            "simulation.workload_on_grid", "estimator.censored_increments"),
        must_be_positive=("simulation.values", "simulation.ms", "studies.self_ms"),
        stress=lambda m: ("transforms.share >= 0.8",
                          m["transforms.share"] >= 0.8),
        build_job=_study_job, run=run_study, check=check_study),
)}
