"""Monte Carlo studies behind the command-line reports.

Each study returns a list of flat row dicts with a fixed key set, ready for
CSV or JSON serialization. Replications are independently seeded through
replication_rng, so results are reproducible for a given base seed and any
subset of replications can be rerun in isolation; with workers > 1 the
replications run in a process pool and are reassembled by index, which
leaves the output byte-identical to the sequential run.
"""
from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import EmptyResult, ParameterError
from .estimator import (EstimatorConfig, empirical_workload_estimator,
                        censored_increments, estimate_cdf_batch)
from .simulation import (CountModel, PoissonCounts, mm1_percentile,
                         mm1_stationary_cdf, replication_rng, sample_compound,
                         sample_compound_poisson, workload_on_grid)
from .transform_maps import Mg1Workload, TransformMap
from .transforms import Exponential, JobModel

# Stream index separating decompounding draws from queueing draws when one
# seed feeds several studies.
_STREAM_DECOMPOUND = 1

DEFAULT_RHOS = (0.5, 0.9, 0.95)
DEFAULT_PERCENTILES = (0.9, 0.99, 0.999)

# Contour truncation for the queueing error study. The estimator's own
# default sqrt(n) = 100 leaves a visible truncation bias at the far tail
# percentiles; 400 pushes it well below the Monte Carlo noise floor.
TABLE2_T_MAX = 400.0


def _check_counts(reps: int, workers: int) -> None:
    if reps < 1:
        raise ParameterError("need at least one replication")
    if workers < 1:
        raise ParameterError("need at least one worker")


def _run_replications(worker: Callable, args: list, workers: int) -> list:
    # a pool forks all its workers at once under the fork start method, so
    # it gets no more of them than there are replications
    workers = min(workers, len(args))
    if workers <= 1:
        return [worker(a) for a in args]
    # imported only here, so that a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, args))


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    m = float(values.mean())
    if values.size < 2:
        return m, 0.0
    return m, float(values.std(ddof=1) / math.sqrt(values.size))


def _estimate_replication(args) -> list[float]:
    """Estimates at each w from one compound sample, then 1.0 if any fell
    back, else 0.0."""
    (seed, rep, stream, counts, jobs, transform_map, n, ws) = args
    rng = replication_rng(seed, rep, stream)
    samples = sample_compound(rng, counts, jobs, n)
    config = EstimatorConfig(w=ws[0])
    results = estimate_cdf_batch(samples, transform_map, ws, config)
    values = [r.value for r in results]
    fell_back = float(any(not r.on_domain_event for r in results))
    return values + [fell_back]


# --------------------------------------------------------------------------
# Percentile table
# --------------------------------------------------------------------------

def table1_rows(mu: float = 20.0, rhos=DEFAULT_RHOS,
                percentiles=DEFAULT_PERCENTILES) -> list[dict]:
    """Stationary-workload percentiles for exponential jobs at each load."""
    rows = []
    for rho in rhos:
        lam = rho * mu
        for p in percentiles:
            rows.append({"rho": rho, "p": p,
                         "w": mm1_percentile(lam, mu, p)})
    return rows


# --------------------------------------------------------------------------
# Relative-error comparison of the three workload estimators
# --------------------------------------------------------------------------

def _table2_replication(args) -> list[list[float]]:
    (seed, rep, stream, lam, mu, delta, n, ws, truths, t_max) = args
    rng = replication_rng(seed, rep, stream)
    totals = sample_compound_poisson(rng, lam * delta, Exponential(mu), n)
    config = EstimatorConfig(w=ws[0], t_max_override=t_max)
    mg1 = Mg1Workload(delta)
    lap = [1.0 - r.value for r in estimate_cdf_batch(totals, mg1, ws, config)]
    readings = workload_on_grid(totals, delta)
    emp = [empirical_workload_estimator(readings, w) for w in ws]
    try:
        recovered = censored_increments(readings, delta)
    except EmptyResult:
        cen = [1.0] * len(ws)
    else:
        cen = [1.0 - r.value for r in estimate_cdf_batch(recovered, mg1, ws, config)]
    # one row per w: relative errors of the laplace, empirical and censored tails
    return [[abs(tail - truth) / truth for tail in tails]
            for *tails, truth in zip(lap, emp, cen, truths)]


def table2_rows(seed: int, rhos=DEFAULT_RHOS, percentiles=DEFAULT_PERCENTILES,
                mu: float = 20.0, delta: float = 0.1, n: int = 10**4,
                reps: int = 100, t_max: float = TABLE2_T_MAX,
                workers: int = 1) -> list[dict]:
    """Mean relative tail-probability errors of the three estimators.

    Per replication one stream of interval totals drives all three: the
    transform-based estimator uses the totals directly, the empirical and
    censored estimators read the discrete-review workload built from the
    same totals. Truth is the closed-form exponential-job tail.
    ParameterError when reps or workers is below 1.
    """
    _check_counts(reps, workers)
    rows = []
    for rho_index, rho in enumerate(rhos):
        lam = rho * mu
        ws = [mm1_percentile(lam, mu, p) for p in percentiles]
        truths = [1.0 - mm1_stationary_cdf(lam, mu, w) for w in ws]
        args = [(seed, r, rho_index, lam, mu, delta, n, ws, truths, t_max)
                for r in range(reps)]
        per_rep = _run_replications(_table2_replication, args, workers)
        errors = np.asarray(per_rep)  # (reps, n_ws, 3)
        for j, (p, w, truth) in enumerate(zip(percentiles, ws, truths)):
            for k, name in enumerate(("laplace", "empirical", "laplace_censored")):
                mean, stderr = _mean_stderr(errors[:, j, k])
                rows.append({"rho": rho, "p": p, "w": w, "truth_tail": truth,
                             "estimator": name, "mean_rel_error": mean,
                             "stderr": stderr, "reps": reps})
    return rows


# --------------------------------------------------------------------------
# Error decay in the sample size
# --------------------------------------------------------------------------

def convergence_rows(seed: int, ns=(100, 1000, 10000), rho: float = 0.5,
                     mu: float = 20.0, delta: float = 0.1,
                     percentile: float = 0.9, w: float | None = None,
                     reps: int = 200, workers: int = 1) -> list[dict]:
    """Mean |estimate - truth| per sample size plus the log-log slope.

    The contour truncation follows the estimator default sqrt(n), so the
    slope reflects the estimator as actually configured. The slope column
    repeats the single fitted value on every row and is None when the
    ladder has one rung. ParameterError when a sample size repeats, or when
    reps or workers is below 1.
    """
    _check_counts(reps, workers)
    if len(ns) < 1:
        raise ParameterError("need at least one sample size")
    if len(set(ns)) != len(ns):
        # the slope would be fitted through coincident points
        raise ParameterError("sample sizes must be distinct")
    lam = rho * mu
    if w is None:
        w = mm1_percentile(lam, mu, percentile)
    truth = mm1_stationary_cdf(lam, mu, w)
    mg1 = Mg1Workload(delta)
    counts = PoissonCounts(lam * delta)
    jobs = Exponential(mu)
    means = []
    stderrs = []
    for k, n in enumerate(ns):
        args = [(seed, r, k, counts, jobs, mg1, n, [w]) for r in range(reps)]
        per_rep = np.asarray(_run_replications(_estimate_replication, args, workers))
        mean, stderr = _mean_stderr(np.abs(per_rep[:, 0] - truth))
        means.append(mean)
        stderrs.append(stderr)
    slope = None
    if len(ns) >= 2:
        slope = float(np.polyfit(np.log(np.asarray(ns, dtype=float)),
                                 np.log(np.asarray(means)), 1)[0])
    return [{"n": n, "w": w, "truth_cdf": truth, "mean_abs_error": m,
             "stderr": se, "reps": reps, "slope": slope}
            for n, m, se in zip(ns, means, stderrs)]


# --------------------------------------------------------------------------
# Jump-size recovery from compound counts
# --------------------------------------------------------------------------

def decompound_rows(seed: int, counts: CountModel, jobs: JobModel,
                    transform_map: TransformMap, ws: list[float],
                    n: int = 10**4, reps: int = 50,
                    workers: int = 1) -> list[dict]:
    """Estimate the jump-size CDF at each w against its analytic value.

    ParameterError when reps or workers is below 1 or ws is empty."""
    _check_counts(reps, workers)
    if not ws:
        raise ParameterError("need at least one evaluation point")
    args = [(seed, r, _STREAM_DECOMPOUND, counts, jobs, transform_map, n, ws)
            for r in range(reps)]
    per_rep = np.asarray(_run_replications(_estimate_replication, args, workers))
    values = per_rep[:, :len(ws)]
    fallback_count = int(per_rep[:, -1].sum())
    rows = []
    for j, w in enumerate(ws):
        truth = float(jobs.cdf(w))
        mean, stderr = _mean_stderr(values[:, j])
        abs_err = np.abs(values[:, j] - truth)
        rows.append({"w": w, "truth_cdf": truth, "mean_estimate": mean,
                     "stderr": stderr,
                     "mean_abs_error": float(abs_err.mean()),
                     "reps": reps, "fallback_reps": fallback_count})
    return rows
