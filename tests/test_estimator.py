"""End-to-end estimator, fallback discipline, comparison estimators."""
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from laptail.errors import EmptyResult, ParameterError
from laptail.estimator import (EstimatorConfig, censored_increments,
                               empirical_workload_estimator, estimate_cdf,
                               estimate_cdf_batch)
from laptail.simulation import (mm1_percentile, replication_rng,
                                sample_compound_poisson, workload_on_grid)
from laptail.inversion import bromwich_details, build_grid
from laptail.logtrack import track_log
from laptail.transform_maps import (Mg1Workload, PoissonDecompound,
                                    apply_map)
from laptail.transforms import (ContourGrid, Exponential, SampleSet,
                                TransformValues,
                                empirical_transform_eval,
                                empirical_transform_grid)
from oracles import direct_transform

W_90 = mm1_percentile(10.0, 20.0, 0.9)


def simulated_totals(seed: int, n: int = 10**4) -> SampleSet:
    rng = replication_rng(seed, 0)
    return sample_compound_poisson(rng, 1.0, Exponential(20.0), n)


# --- config and diagnostics ---------------------------------------------------

def test_config_validation():
    with pytest.raises(ParameterError):
        EstimatorConfig(w=0.0)
    with pytest.raises(ParameterError):
        EstimatorConfig(w=1.0, t_max_override=0.0)
    with pytest.raises(ParameterError):
        EstimatorConfig(w=1.0, t_max_override=float("inf"))
    # the contour abscissa is the estimator's constant, not a field
    with pytest.raises(TypeError):
        EstimatorConfig(w=1.0, c=1.0)


def test_default_truncation_follows_sample_size():
    cfg = EstimatorConfig(w=W_90)
    res = estimate_cdf(simulated_totals(1, 400), Mg1Workload(0.1), cfg)
    assert res.t_max_used == pytest.approx(20.0)
    assert res.n == 400
    res2 = estimate_cdf(simulated_totals(1, 400), Mg1Workload(0.1),
                        EstimatorConfig(w=W_90, t_max_override=35.0))
    assert res2.t_max_used == 35.0


def test_estimates_the_workload_cdf():
    res = estimate_cdf(simulated_totals(2), Mg1Workload(0.1),
                       EstimatorConfig(w=W_90))
    assert res.on_domain_event
    assert res.fallback_reason is None
    assert abs(res.value - 0.9) < 0.05


def test_fallback_on_unstable_mean():
    ss = SampleSet([0.2, 0.3])  # mean 0.25 >= delta
    res = estimate_cdf(ss, Mg1Workload(0.1), EstimatorConfig(w=1.0))
    assert res.value == 0.0
    assert not res.on_domain_event
    assert res.raw_value is None
    assert res.fallback_reason == "domain_event"
    assert not res.clipped


def test_domain_event_is_named_before_grid_capacity():
    # at w = 1e300 the grid would also be over its cap
    res = estimate_cdf(SampleSet([0.2, 0.3]), Mg1Workload(0.1),
                       EstimatorConfig(w=1e300))
    assert res.fallback_reason == "domain_event"


def test_domain_is_checked_once_per_estimate():
    checks = []

    def counting(map_class):
        class Counting(map_class):
            def check(self, samples):
                checks.append(samples)
                super().check(samples)
        return Counting

    mg1, poisson = counting(Mg1Workload)(0.1), counting(PoissonDecompound)()
    compound = sample_compound_poisson(replication_rng(7, 0), 1.0,
                                       Exponential(1.0), 500)
    cases = [(mg1, simulated_totals(7, 500), True),
             (mg1, SampleSet([0.2, 0.3]), False),
             (poisson, compound, True),
             (poisson, SampleSet(np.zeros(5)), False)]
    for transform_map, samples, passes in cases:
        checks.clear()
        out = estimate_cdf_batch(samples, transform_map, [0.5, 1.0],
                                 EstimatorConfig(w=0.5))
        assert [r.fallback_reason is None for r in out] == [passes, passes]
        assert len(checks) == 1


def test_fallback_on_all_zero_decompounding():
    res = estimate_cdf(SampleSet(np.zeros(5)), PoissonDecompound(),
                       EstimatorConfig(w=1.0))
    assert not res.on_domain_event
    assert res.value == 0.0
    assert res.fallback_reason == "domain_event"


def test_all_zero_workload_samples_estimate_unit_cdf():
    res = estimate_cdf(SampleSet(np.zeros(100)), Mg1Workload(0.1),
                       EstimatorConfig(w=0.5))
    assert res.on_domain_event
    assert res.value == pytest.approx(1.0, abs=1e-6)


def test_capacity_failure_falls_back():
    cfg = EstimatorConfig(w=1.0, t_max_override=1e9)
    res = estimate_cdf(simulated_totals(3, 100), Mg1Workload(0.1), cfg)
    assert not res.on_domain_event
    assert res.fallback_reason == "capacity"


def test_a_grid_count_past_any_integer_falls_back_to_capacity():
    # at w = 1e308 the grid's interval count t_max / h overflows to inf,
    # where its ceiling raised OverflowError out of the estimator
    results = estimate_cdf_batch(simulated_totals(3, 100), Mg1Workload(0.1),
                                 [0.5, 1e308], EstimatorConfig(w=0.5))
    assert [r.fallback_reason for r in results] == ["capacity", "capacity"]
    assert [r.value for r in results] == [0.0, 0.0]


def test_estimate_on_the_shared_grid_equals_a_fresh_grid():
    totals = simulated_totals(6, 1000)
    mg1 = Mg1Workload(0.1)
    config = EstimatorConfig(w=W_90, t_max_override=40.0)
    shared = build_grid(1.0, 40.0, W_90)
    fresh = ContourGrid(shared.c, shared.t_max, shared.m)
    assert fresh is not shared
    values = [bromwich_details(apply_map(mg1, totals, grid), [W_90],
                               plateau=mg1.plateau(totals)).values[0]
              for grid in (shared, fresh)]
    assert values[0] == values[1]
    assert estimate_cdf(totals, mg1, config).value == min(1.0, max(0.0, values[1]))


def test_batch_matches_single_calls():
    totals = simulated_totals(5, 2000)
    cfg = EstimatorConfig(w=0.1)
    ws = [0.1, 0.25, 0.5, 0.9]
    batch = estimate_cdf_batch(totals, Mg1Workload(0.1), ws, cfg)
    for w, got in zip(ws, batch):
        single = estimate_cdf(totals, Mg1Workload(0.1),
                              EstimatorConfig(w=w))
        # all w <= 1 share the same step bound, so the quadrature agrees
        assert got.value == pytest.approx(single.value, abs=1e-12)


@pytest.mark.parametrize("transform_map", [Mg1Workload(0.1),
                                           PoissonDecompound()])
def test_array_batch_equals_the_list_batch(transform_map):
    totals = simulated_totals(6, 2000)
    cfg = EstimatorConfig(w=0.1)
    ws = [0.25, 0.1, 0.9, 0.25]
    want = estimate_cdf_batch(totals, transform_map, ws, cfg)
    assert estimate_cdf_batch(totals, transform_map, np.array(ws), cfg) == want
    assert estimate_cdf_batch(totals, transform_map, np.array([]), cfg) == []
    with pytest.raises(ParameterError):
        estimate_cdf_batch(totals, transform_map, np.array([0.5, 0.0]), cfg)
    with pytest.raises(ParameterError):
        estimate_cdf_batch(totals, transform_map, np.array([0.5, math.inf]), cfg)


def test_batch_propagates_fallback():
    ss = SampleSet([0.2, 0.3])
    out = estimate_cdf_batch(ss, Mg1Workload(0.1), [0.5, 1.0],
                             EstimatorConfig(w=0.5))
    assert all(not r.on_domain_event for r in out)
    assert len(out) == 2


def test_monotone_in_w_for_simulated_data():
    """CDF estimates at the three study percentiles are almost always ordered."""
    ws = [mm1_percentile(10.0, 20.0, p) for p in (0.9, 0.99, 0.999)]
    ordered = 0
    reps = 100
    for r in range(reps):
        rng = replication_rng(40, r)
        ss = sample_compound_poisson(rng, 1.0, Exponential(20.0), 10**4)
        vals = [x.value for x in estimate_cdf_batch(
            ss, Mg1Workload(0.1), ws, EstimatorConfig(w=ws[0]))]
        ordered += (vals[0] <= vals[1] <= vals[2])
    assert ordered >= 90


def test_clipping_records_raw_value():
    # tiny n makes the raw inversion exceed 1 now and then; find one such draw
    for r in range(200):
        rng = replication_rng(41, r)
        ss = sample_compound_poisson(rng, 1.0, Exponential(20.0), 30)
        if ss.mean >= 0.1:
            continue
        res = estimate_cdf(ss, Mg1Workload(0.1), EstimatorConfig(w=3.0))
        if res.clipped:
            assert res.value in (0.0, 1.0)
            assert res.raw_value is not None
            assert res.raw_value != res.value
            # raw_value is the unclipped inversion, bit for bit
            mg1 = Mg1Workload(0.1)
            grid = build_grid(1.0, math.sqrt(ss.n), 3.0)
            direct = bromwich_details(apply_map(mg1, ss, grid), [3.0],
                                      plateau=mg1.plateau(ss)).values[0]
            assert res.raw_value == direct
            return
    pytest.fail("no clipped replication found")


def test_grid_transform_matches_direct_at_estimate_level():
    # n = 2000 M/M/1 slot totals, T = 100, w at the 99.9th percentile: the
    # mg1 estimate from NUFFT grid values and from directly evaluated values
    # must agree far inside the statistical error
    ss = simulated_totals(3, 2000)
    w = mm1_percentile(10.0, 20.0, 0.999)
    grid = build_grid(1.0, 100.0, w)
    mg1 = Mg1Workload(0.1)

    def estimate(values):
        log_path = track_log(partial(empirical_transform_eval, ss), grid, values=values)
        psi = mg1.values(log_path, ss)
        return bromwich_details(TransformValues(grid, psi), [w],
                                plateau=mg1.plateau(ss)).values[0]

    via_grid = estimate(empirical_transform_grid(ss, grid).values)
    via_direct = estimate(direct_transform(ss, grid.points))
    assert 0.9 < via_direct < 1.1
    assert abs(via_grid - via_direct) <= 1e-9


# --- comparison estimators -----------------------------------------------------

def test_empirical_workload_estimator_examples():
    ss = SampleSet([0.1, 0.2, 0.3])
    assert empirical_workload_estimator(ss, 0.15) == pytest.approx(2 / 3)
    assert empirical_workload_estimator(ss, 5.0) == 0.0
    assert empirical_workload_estimator(ss, 0.0) == 1.0


@pytest.mark.parametrize("seed", range(5))
def test_empirical_workload_estimator_is_the_mean_of_the_exceedances(seed):
    # the count of readings above w over n is the same float as np.mean of
    # the comparisons: the count is exact, and so is the mean's sum of ones
    rng = np.random.default_rng(seed)
    values = np.round(rng.exponential(1.0, 1 + 997 * seed), 1)  # with ties
    ss = SampleSet(values)
    for w in [0.0, 0.35, 100.0, *values[:20].tolist()]:
        got = empirical_workload_estimator(ss, w)
        assert type(got) is float
        assert got == float(np.mean(values > w))


def test_censored_increments_by_hand():
    got = censored_increments(SampleSet([0.5, 0.45, 0.6]), 0.1)
    assert np.allclose(got.values, [0.05, 0.25])


def test_censored_increments_exclusion():
    with pytest.raises(EmptyResult):
        censored_increments(SampleSet([0.05, 0.2]), 0.1)


@pytest.mark.parametrize("delta", [math.inf, math.nan])
def test_censored_increments_refuse_non_finite_delta(delta):
    # not EmptyResult: every reading lies below an infinite delta
    with pytest.raises(ParameterError, match="delta must be positive and finite"):
        censored_increments(SampleSet(np.full(6, 0.4)), delta)


def test_censored_increments_constant_path():
    got = censored_increments(SampleSet(np.full(6, 0.4)), 0.1)
    assert np.allclose(got.values, 0.1)


@given(arrays(np.float64, st.integers(2, 200),
              elements=st.floats(0.0, 0.3)), st.integers(0, 10**6))
@settings(max_examples=50)
def test_censored_increments_nonnegative_on_valid_paths(totals, seed):
    """Any discrete-review path yields nonnegative recovered inflows."""
    delta = 0.1
    path = workload_on_grid(SampleSet(totals), delta)
    try:
        got = censored_increments(path, delta)
    except EmptyResult:
        return
    assert np.all(got.values >= 0.0)


def test_censored_recovers_inflows_where_defined():
    rng = replication_rng(42, 0)
    totals = sample_compound_poisson(rng, 1.0, Exponential(20.0), 5000)
    path = workload_on_grid(totals, 0.1)
    kept = path.values[:-1] >= 0.1
    got = censored_increments(path, 0.1)
    assert np.allclose(got.values, totals.values[1:][kept], atol=1e-9)

