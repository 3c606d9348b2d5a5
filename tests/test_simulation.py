"""Simulators: determinism, distributional checks, path validity, oracles.

Tolerances on long-run workload averages are wider than i.i.d. standard
errors because delta-spaced readings are autocorrelated (relaxation time of
a few readings at the study parameters).
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from laptail.errors import ParameterError
from laptail.simulation import (BinomialCounts, NegBinomialCounts,
                                PoissonCounts, mm1_percentile,
                                mm1_stationary_cdf, replication_rng,
                                sample_compound, sample_compound_poisson,
                                simulate_mg1_workload, workload_on_grid)
from laptail.transforms import Deterministic, Exponential, Gamma, SampleSet


def test_replication_rng_is_reproducible_and_decoupled():
    a = replication_rng(123, 7).random(4)
    b = replication_rng(123, 7).random(4)
    c = replication_rng(123, 8).random(4)
    d = replication_rng(124, 7).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(replication_rng(123, 7, stream=1).random(4), a)


def test_simulations_are_deterministic_given_seed():
    x1 = simulate_mg1_workload(replication_rng(9, 0), 10.0, Exponential(20.0),
                               0.1, 500)
    x2 = simulate_mg1_workload(replication_rng(9, 0), 10.0, Exponential(20.0),
                               0.1, 500)
    assert np.array_equal(x1.values, x2.values)
    t1 = sample_compound_poisson(replication_rng(9, 1), 1.0, Exponential(20.0), 500)
    t2 = sample_compound_poisson(replication_rng(9, 1), 1.0, Exponential(20.0), 500)
    assert np.array_equal(t1.values, t2.values)


# --- compound draws ----------------------------------------------------------

def test_tiny_intensity_gives_all_zeros():
    ss = sample_compound_poisson(replication_rng(1, 0), 1e-9,
                                 Exponential(20.0), 100)
    assert ss.zero_fraction == 1.0
    assert np.all(ss.values == 0.0)


def test_compound_mean_matches_wald():
    ss = sample_compound_poisson(replication_rng(1, 1), 1.0,
                                 Exponential(20.0), 10**5)
    se = math.sqrt(ss.values.var() / ss.n)
    assert abs(ss.mean - 0.05) <= 3.0 * se


def test_zero_fraction_estimates_idle_probability():
    ss = sample_compound_poisson(replication_rng(1, 2), 2.0,
                                 Exponential(1.0), 10**5)
    p0 = math.exp(-2.0)
    se = math.sqrt(p0 * (1.0 - p0) / ss.n)
    assert abs(ss.zero_fraction - p0) <= 3.0 * se


def test_zeros_are_exact_floats():
    rng = replication_rng(1, 3)
    counts = rng.poisson(0.5, 1000)
    values = Exponential(2.0).sample_sums(replication_rng(1, 4), counts)
    assert np.all((values == 0.0) == (counts == 0))


def test_count_model_zero_probabilities():
    """Pin the count parameterizations through their zero-slot masses."""
    n = 10**5
    binom = sample_compound(replication_rng(2, 0), BinomialCounts(3, 0.4),
                            Exponential(1.0), n)
    negb = sample_compound(replication_rng(2, 1), NegBinomialCounts(3, 0.4),
                           Exponential(1.0), n)
    pois = sample_compound(replication_rng(2, 2), PoissonCounts(1.5),
                           Exponential(1.0), n)
    for ss, p0 in ((binom, 0.6**3), (negb, 0.6**3), (pois, math.exp(-1.5))):
        se = math.sqrt(p0 * (1.0 - p0) / n)
        assert abs(ss.zero_fraction - p0) <= 3.5 * se


def test_negbinomial_mean_count():
    # mean of the compound equals E[N] E[xi] with E[N] = M p / (1 - p)
    n = 10**5
    ss = sample_compound(replication_rng(2, 3), NegBinomialCounts(2, 0.25),
                         Exponential(1.0), n)
    want = 2 * 0.25 / 0.75
    se = math.sqrt(ss.values.var() / n)
    assert abs(ss.mean - want) <= 3.5 * se


# --- workload paths ----------------------------------------------------------

def test_workload_long_run_idle_fraction_and_mean():
    ss = simulate_mg1_workload(replication_rng(3, 0), 10.0, Exponential(20.0),
                               0.1, 10**5)
    # autocorrelation-widened three-sigma bands, see module docstring
    assert abs(ss.zero_fraction - 0.5) <= 0.02
    assert abs(ss.mean - 0.05) <= 0.004


def test_workload_mean_for_gamma_jobs():
    jobs = Gamma(2.0, 0.025)  # mean 0.05, second moment 0.00375
    ss = simulate_mg1_workload(replication_rng(3, 1), 10.0, jobs, 0.1,
                               4 * 10**4)
    want = 10.0 * 0.00375 / (2.0 * (1.0 - 10.0 * jobs.mean))
    assert abs(ss.mean - want) <= 0.004
    assert abs(ss.zero_fraction - 0.5) <= 0.03


def test_workload_deterministic_jobs_run():
    ss = simulate_mg1_workload(replication_rng(3, 2), 10.0, Deterministic(0.05),
                               0.1, 10**4)
    assert abs(ss.zero_fraction - 0.5) <= 0.03


def test_workload_without_arrivals_is_zero():
    ss = simulate_mg1_workload(replication_rng(3, 3), 0.0, Exponential(20.0),
                               0.1, 50)
    assert np.all(ss.values == 0.0)


def test_workload_drain_rate_bound():
    """Consecutive readings can drop by at most one drain interval."""
    ss = simulate_mg1_workload(replication_rng(3, 4), 18.0, Exponential(20.0),
                               0.1, 2 * 10**4)
    drops = ss.values[:-1] - ss.values[1:]
    assert drops.max() <= 0.1 + 1e-9


def test_workload_rejects_unstable_load():
    with pytest.raises(ParameterError):
        simulate_mg1_workload(replication_rng(3, 5), 21.0, Exponential(20.0),
                              0.1, 10)
    with pytest.raises(ParameterError):
        simulate_mg1_workload(replication_rng(3, 5), -1.0, Exponential(20.0),
                              0.1, 10)


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_queue_spec_refuses_non_finite_delta(delta):
    with pytest.raises(ParameterError, match="delta must be positive and finite"):
        simulate_mg1_workload(replication_rng(3, 5), 10.0, Exponential(20.0),
                              delta, 10)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_grid_workload_refuses_non_finite_delta(delta):
    # an infinite delta must not reach the subtraction of the recursion,
    # which would warn before anything failed
    with pytest.raises(ParameterError, match="delta must be positive and finite"):
        workload_on_grid(SampleSet([0.2, 0.0, 0.3]), delta)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", range(5))
def test_sums_are_numpys_gamma_draws_bit_for_bit(seed):
    # rng.gamma(shape, scale) draws scale times standard_gamma(shape), so the
    # sums are its draws bit for bit: exact 0.0 at zero counts, and infinite
    # where a shape of two or more jobs overflows (1e308, as in
    # test_sums_that_overflow_exit_3_without_a_warning), with no warning
    counts = np.random.default_rng(seed).poisson(3.0, 2000)
    counts[:4] = [0, 1, 2, 0]
    for jobs, shape, scale in ((Exponential(20.0), 1.0, 1.0 / 20.0),
                               (Gamma(20.0, 0.05), 20.0, 0.05),
                               (Gamma(1e308, 10.0), 1e308, 10.0)):
        with np.errstate(over="ignore"):
            want = np.random.default_rng([seed, 1]).gamma(counts * shape,
                                                          scale)
        got = jobs.sample_sums(np.random.default_rng([seed, 1]), counts)
        assert np.array_equal(got, want)
        assert np.all(got[counts == 0] == 0.0)
    assert np.all(np.isinf(got[counts >= 2]))


@given(arrays(np.float64, st.integers(1, 60), elements=st.floats(0.0, 1.0)),
       st.floats(0.05, 0.5))
@settings(max_examples=60)
def test_grid_workload_matches_loop_recursion(totals, delta):
    got = workload_on_grid(SampleSet(totals), delta).values
    y = 0.0
    for i, x in enumerate(totals):
        y = max(0.0, y + x - delta)
        assert got[i] == pytest.approx(y, abs=1e-9)


# --- closed-form oracles -------------------------------------------------------

def test_percentiles_match_reference_table():
    # frozen reference values, +-5e-4
    table = {
        (0.50, 0.9): 0.1609, (0.50, 0.99): 0.3912, (0.50, 0.999): 0.6215,
        (0.90, 0.9): 1.0986, (0.90, 0.99): 2.2499, (0.90, 0.999): 3.4012,
        (0.95, 0.9): 2.2513, (0.95, 0.99): 4.5539, (0.95, 0.999): 6.8565,
    }
    for (rho, p), want in table.items():
        got = mm1_percentile(rho * 20.0, 20.0, p)
        assert got == pytest.approx(want, abs=5e-4)


def test_cdf_examples_and_round_trip():
    assert mm1_stationary_cdf(10.0, 20.0, 0.1609) == pytest.approx(0.9, abs=5e-4)
    assert mm1_stationary_cdf(18.0, 20.0, 3.4012) == pytest.approx(0.999, abs=5e-4)
    assert mm1_stationary_cdf(10.0, 20.0, 0.0) == pytest.approx(0.5)
    for p in (0.51, 0.9, 0.999):
        w = mm1_percentile(10.0, 20.0, p)
        assert mm1_stationary_cdf(10.0, 20.0, w) == pytest.approx(p, abs=1e-10)


# w + gap stays small enough that 1 - rho*exp(-(mu-lam)w) is still
# strictly below 1.0 in float64
@given(st.floats(0.0, 2.0), st.floats(0.0, 1.0))
def test_cdf_monotone_with_unit_range(w, gap):
    lo = mm1_stationary_cdf(10.0, 20.0, w)
    hi = mm1_stationary_cdf(10.0, 20.0, w + gap)
    assert 0.5 <= lo <= hi < 1.0


def test_oracle_parameter_guards():
    with pytest.raises(ParameterError):
        mm1_stationary_cdf(20.0, 20.0, 1.0)
    with pytest.raises(ParameterError):
        mm1_percentile(10.0, 20.0, 0.5)  # at the idle mass boundary
    with pytest.raises(ParameterError):
        mm1_percentile(10.0, 20.0, 1.0)


@pytest.mark.parametrize("call, message", [
    (lambda: replication_rng(-1, 0), "seed components must be nonnegative"),
    (lambda: BinomialCounts(0, 0.5), "big_m must be an integer >= 1"),
    (lambda: BinomialCounts(2, 1.0), "success probability must be in (0, 1)"),
    (lambda: sample_compound(replication_rng(1, 0), PoissonCounts(1.0),
                             Exponential(1.0), 0), "need at least one draw"),
    (lambda: simulate_mg1_workload(replication_rng(1, 0), 1.0,
                                   Exponential(2.0), 0.1, 0),
     "need at least one reading"),
    (lambda: mm1_stationary_cdf(0.0, 20.0, 1.0), "rates must be positive"),
    (lambda: mm1_stationary_cdf(10.0, 20.0, -1.0), "w must be nonnegative"),
    (lambda: mm1_stationary_cdf(10.0, 20.0, math.nan),
     "w must be nonnegative")],
    ids=["seed", "big-m", "p-success", "draws", "readings", "rates",
         "negative-w", "nan-w"])
def test_simulation_refusals(call, message):
    with pytest.raises(ParameterError) as exc:
        call()
    assert str(exc.value) == message


def test_mm1_cdf_at_infinity_is_one():
    assert mm1_stationary_cdf(10.0, 20.0, math.inf) == 1.0
