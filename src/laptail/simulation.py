"""Synthetic data generators and closed-form single-server-queue oracles.

Two ways of producing workload observations coexist on purpose. The exact
sampler runs the event-driven unit-rate queue and reads the workload at the
sample instants, with no discretization error. The grid recursion
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


@dataclass(frozen=True)
class QueueSpec:
    """Single-server queue with Poisson arrivals, drained at unit rate.

    lam is the arrival rate, jobs the service-requirement model, delta the
    spacing of workload readings. lam = 0 is allowed (an empty queue);
    operations that need stationarity require load < 1.
    """

    lam: float
    jobs: JobModel
    delta: float

    def __post_init__(self):
        if not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ParameterError("arrival rate must be nonnegative and finite")
        if not (self.delta > 0 and math.isfinite(self.delta)):
            raise ParameterError(
                "sampling interval delta must be positive and finite")

    @property
    def rho(self) -> float:
        """Offered load, arrival rate times mean job size."""
        return self.lam * self.jobs.mean


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

def _stationary_initial_workload(rng: np.random.Generator,
                                 spec: QueueSpec) -> float:
    # Exact stationary law for exponential jobs: atom at 0 of mass 1 - rho,
    # else exponential with rate (1/E[B] - lam).
    gap = 1.0 / spec.jobs.mean - spec.lam
    if rng.random() >= spec.rho:
        return 0.0
    return rng.exponential(1.0 / gap)


def simulate_mg1_workload(rng: np.random.Generator, spec: QueueSpec,
                          n: int) -> SampleSet:
    """Workload of the event-driven queue read at delta-spaced instants.

    Work arrives in Poisson-timed jumps and drains at rate 1; readings are
    Y(t0 + i*delta) for i = 1..n, exact between events, after a warm-up t0.
    Exponential jobs start from the exact stationary law with t0 = 0; other
    jobs start empty with t0 = 50 mean services per unit of spare capacity.
    ParameterError when the load is 1 or more.
    """
    if n < 1:
        raise ParameterError("need at least one reading")
    if spec.rho >= 1.0:
        raise ParameterError(f"load {spec.rho:g} >= 1 has no stationary regime")
    if spec.lam == 0.0:
        return SampleSet(np.zeros(n))
    if isinstance(spec.jobs, Exponential):
        warmup_time = 0.0
        initial = _stationary_initial_workload(rng, spec)
    else:
        warmup_time = _WARMUP_RELAXATIONS * spec.jobs.mean / (1.0 - spec.rho)
        initial = 0.0
    horizon = warmup_time + n * spec.delta
    sample_times = warmup_time + spec.delta * np.arange(1, n + 1)

    # Arrival times by exponential gaps, in blocks sized from the expected
    # count so one top-up pass almost always suffices.
    expected = spec.lam * horizon
    block = int(expected + 6.0 * math.sqrt(expected + 1.0)) + 16
    gaps = [rng.exponential(1.0 / spec.lam, block)]
    total = float(gaps[0].sum())
    while total <= horizon:
        more = rng.exponential(1.0 / spec.lam, block)
        gaps.append(more)
        total += float(more.sum())
    arrivals = np.cumsum(np.concatenate(gaps))
    arrivals = arrivals[arrivals <= horizon]
    jobs = spec.jobs.sample(rng, arrivals.size)

    # Workload just after the k-th arrival is A_k - t_k - min over j <= k of
    # (A_{j-1} - t_j) with A the initial workload plus cumulative job sizes:
    # the running minimum locates the last emptying of the queue.
    a_after = initial + np.cumsum(jobs)
    a_before = np.concatenate([[initial], a_after[:-1]])
    floor_run = np.minimum.accumulate(np.minimum(a_before - arrivals, 0.0))

    # Reading at time t uses the last arrival at or before t.
    idx = np.searchsorted(arrivals, sample_times, side="right") - 1
    readings = np.empty(n)
    no_arrival = idx < 0
    readings[no_arrival] = np.maximum(initial - sample_times[no_arrival], 0.0)
    has = ~no_arrival
    k = idx[has]
    readings[has] = np.maximum(a_after[k] - sample_times[has] - floor_run[k], 0.0)

    # Unit drain rate bounds every downward step by delta.
    if readings.size > 1:
        drops = readings[:-1] - readings[1:]
        if np.any(drops > spec.delta * (1.0 + 1e-9) + 1e-12):
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
    if w < 0:
        raise ParameterError("w must be nonnegative")
    return 1.0 - (lam / mu) * math.exp(-(mu - lam) * w)


def mm1_percentile(lam: float, mu: float, p: float) -> float:
    """Inverse of mm1_stationary_cdf, defined for p above the idle mass."""
    _check_mm1(lam, mu)
    rho = lam / mu
    if not 1.0 - rho < p < 1.0:
        raise ParameterError(f"percentile level must be in ({1.0 - rho:g}, 1)")
    return math.log(rho / (1.0 - p)) / (mu - lam)
