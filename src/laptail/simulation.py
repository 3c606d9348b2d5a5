"""Synthetic data generators and closed-form single-server-queue oracles.

Two ways of producing workload observations coexist on purpose. The exact
sampler (simulate_mg1_workload) runs the event-driven unit-rate queue, its
job sizes drawn by the job law's sample_sums as sums of one job each, and
reads the workload at the sample instants, with no discretization error,
through one closed form for every reading. The grid recursion
(workload_on_grid) instead builds the readings directly from per-interval
inflow totals by crediting the whole interval's work before draining; it is
the natural discrete-review model when only interval totals exist, and its
readings are exactly consistent with censored-increment recovery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .transforms import Exponential, JobModel, SampleSet

# Warm-up horizon for non-exponential jobs, in units of mean service time
# over the spare capacity; long enough that initialization bias is far
# below Monte Carlo noise at the study's sample sizes.
_WARMUP_RELAXATIONS = 50.0


def replication_rng(base_seed: int, replication: int,
                    stream: int = 0) -> np.random.Generator:
    """Independent generator for one Monte Carlo replication.

    Seeding with the (base_seed, stream, replication) triple hashes the
    parts together, so replications and streams are statistically
    independent and any subset is reproducible in isolation.
    """
    if base_seed < 0 or replication < 0 or stream < 0:
        raise ParameterError("seed components must be nonnegative")
    return np.random.default_rng([base_seed, stream, replication])


# --------------------------------------------------------------------------
# Interval totals
# --------------------------------------------------------------------------

def sample_compound_poisson(rng: np.random.Generator, intensity: float,
                            jobs: JobModel, n: int) -> SampleSet:
    """n independent draws of a Poisson(intensity) sum of job draws.

    Zero-count draws are exact floating 0.0, so zero_fraction estimates
    exp(-intensity) without tolerance games.
    """
    return sample_compound(rng, PoissonCounts(intensity), jobs, n)


@dataclass(frozen=True)
class PoissonCounts:
    """Per-slot count model N ~ Poisson(rate)."""

    rate: float

    def __post_init__(self):
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ParameterError("count rate must be positive and finite")

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.poisson(self.rate, n)


@dataclass(frozen=True)
class _TrialCounts:
    """Fields and checks shared by the count models with big_m trials."""

    big_m: int
    p: float

    def __post_init__(self):
        if not (isinstance(self.big_m, int) and self.big_m >= 1):
            raise ParameterError("big_m must be an integer >= 1")
        if not 0.0 < self.p < 1.0:
            raise ParameterError("success probability must be in (0, 1)")


@dataclass(frozen=True)
class BinomialCounts(_TrialCounts):
    """Per-slot count model N ~ Binomial(big_m, p)."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.binomial(self.big_m, self.p, n)


@dataclass(frozen=True)
class NegBinomialCounts(_TrialCounts):
    """Per-slot count model, negative binomial: P(N=k) ~ C(k+M-1,k)(1-p)^M p^k."""

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # numpy's convention counts failures with success probability its
        # first argument's complement relative to ours
        return rng.negative_binomial(self.big_m, 1.0 - self.p, n)


CountModel = PoissonCounts | BinomialCounts | NegBinomialCounts


def sample_compound(rng: np.random.Generator, counts: CountModel,
                    jobs: JobModel, n: int) -> SampleSet:
    """n draws of sum_{i<=N} xi_i for a general count model."""
    if n < 1:
        raise ParameterError("need at least one draw")
    return SampleSet(jobs.sample_sums(rng, counts.sample(rng, n)))


# --------------------------------------------------------------------------
# Workload paths
# --------------------------------------------------------------------------

def simulate_mg1_workload(rng: np.random.Generator, lam: float,
                          jobs: JobModel, delta: float, n: int) -> SampleSet:
    """Workload of the event-driven queue read at delta-spaced instants.

    Jobs drawn from ``jobs`` arrive at the Poisson rate lam and their work
    drains at rate 1; readings are Y(t0 + i*delta) for i = 1..n, exact
    between events, after a warm-up t0. lam = 0 is an empty queue.
    Exponential jobs start from the exact stationary law with t0 = 0; other
    jobs start empty with t0 = 50 mean services per unit of spare capacity.
    ParameterError when lam is negative or not finite, delta is not
    positive and finite, n < 1, or the load lam * E[B] is 1 or more.
    """
    if not (lam >= 0 and math.isfinite(lam)):
        raise ParameterError("arrival rate must be nonnegative and finite")
    if not (delta > 0 and math.isfinite(delta)):
        raise ParameterError(
            "sampling interval delta must be positive and finite")
    if n < 1:
        raise ParameterError("need at least one reading")
    rho = lam * jobs.mean
    if rho >= 1.0:
        raise ParameterError(f"load {rho:g} >= 1 has no stationary regime")
    if lam == 0.0:
        return SampleSet(np.zeros(n))
    if isinstance(jobs, Exponential):
        # exact stationary law: an atom at 0 of mass 1 - rho, else
        # exponential with rate 1/E[B] - lam
        warmup_time = 0.0
        initial = (rng.exponential(1.0 / (1.0 / jobs.mean - lam))
                   if rng.random() < rho else 0.0)
    else:
        warmup_time = _WARMUP_RELAXATIONS * jobs.mean / (1.0 - rho)
        initial = 0.0
    horizon = warmup_time + n * delta
    sample_times = warmup_time + delta * np.arange(1, n + 1)

    # Arrival times by exponential gaps, in blocks sized from the expected
    # count so one block almost always suffices. A virtual arrival of no
    # work at time 0 carries the initial workload, so every reading has an
    # arrival at or before it.
    expected = lam * horizon
    block = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 16
    gaps, total = [], 0.0
    while total <= horizon:
        gaps.append(rng.exponential(1.0 / lam, block))
        total += float(gaps[-1].sum())
    arrivals = np.cumsum(np.concatenate([[0.0], *gaps]))
    arrivals = arrivals[arrivals <= horizon]
    work = jobs.sample_sums(rng, np.ones(arrivals.size - 1, dtype=np.int64))

    # Workload just after the k-th arrival is A_k - t_k - min over j <= k of
    # (A_{j-1} - t_j) with A the initial workload plus cumulative job sizes:
    # the running minimum locates the last emptying of the queue. Each
    # reading uses the last arrival at or before it.
    a_after = initial + np.cumsum(np.concatenate([[0.0], work]))
    a_before = np.concatenate([[initial], a_after[:-1]])
    floor_run = np.minimum.accumulate(np.minimum(a_before - arrivals, 0.0))
    k = np.searchsorted(arrivals, sample_times, side="right") - 1
    readings = np.maximum(a_after[k] - sample_times - floor_run[k], 0.0)

    # Unit drain rate bounds every downward step by delta.
    drops = readings[:-1] - readings[1:]
    if np.any(drops > delta * (1.0 + 1e-9) + 1e-12):
        raise AssertionError("simulated path drains faster than unit rate")
    return SampleSet(readings)


def workload_on_grid(interval_totals: SampleSet, delta: float) -> SampleSet:
    """Discrete-review workload readings built from interval inflow totals.

    Recursion y_i = max(0, y_{i-1} + x_i - delta) starting at 0: each
    interval's inflow is credited before the interval's drain. Evaluated in
    closed form through the reflected running minimum of the net-input walk.
    """
    if not (delta > 0 and math.isfinite(delta)):
        raise ParameterError("delta must be positive and finite")
    net = np.cumsum(interval_totals.values - delta)
    floor_run = np.minimum(np.minimum.accumulate(net), 0.0)
    return SampleSet(net - floor_run)


# --------------------------------------------------------------------------
# Closed-form oracles for exponential jobs
# --------------------------------------------------------------------------

def _check_mm1(lam: float, mu: float) -> None:
    if not (lam > 0 and mu > 0):
        raise ParameterError("rates must be positive")
    if lam >= mu:
        raise ParameterError(f"need lam < mu for stationarity, got {lam} >= {mu}")


def mm1_stationary_cdf(lam: float, mu: float, w: float) -> float:
    """P(Y <= w) = 1 - (lam/mu) exp(-(mu-lam) w) for exponential(mu) jobs."""
    _check_mm1(lam, mu)
    if not w >= 0:  # nan too; w = inf gives 1
        raise ParameterError("w must be nonnegative")
    return 1.0 - (lam / mu) * math.exp(-(mu - lam) * w)


def mm1_percentile(lam: float, mu: float, p: float) -> float:
    """Inverse of mm1_stationary_cdf, defined for p above the idle mass."""
    _check_mm1(lam, mu)
    rho = lam / mu
    if not 1.0 - rho < p < 1.0:
        raise ParameterError(f"percentile level must be in ({1.0 - rho:g}, 1)")
    return math.log(rho / (1.0 - p)) / (mu - lam)
