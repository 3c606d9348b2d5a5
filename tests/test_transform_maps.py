"""Transform maps: analytic round trips, domain events, symmetry."""
import math
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from laptail import transform_maps, transforms
from laptail.errors import DomainEventFailed, ParameterError
from laptail.inversion import build_grid
from laptail.logtrack import track_log
from laptail.simulation import (BinomialCounts, replication_rng,
                                sample_compound, sample_compound_poisson)
from laptail.transform_maps import (BinomialDecompound, Mg1Workload,
                                    NegBinomialDecompound, PoissonDecompound,
                                    apply_map, domain_check)
from laptail.transforms import (Exponential, Gamma, SampleSet,
                                TransformValues, empirical_transform_eval,
                                empirical_transform_grid)

ROUND_TRIP_GRID = build_grid(1.0, 50.0, 1.0)


def job_transform(s):
    return 1.0 / (1.0 + s)


def rel_err(got, want):
    return float(np.max(np.abs(got - want) / np.abs(want)))


# --- analytic round trips (exact transforms substituted for empirical) -----

def test_mg1_matches_workload_formula():
    """The map on the exact inflow transform is the classical workload law."""
    mu, lam, delta = 20.0, 10.0, 0.1
    ev = lambda s: np.exp(lam * delta * (mu / (mu + s) - 1.0))
    path = track_log(ev, ROUND_TRIP_GRID, ev(ROUND_TRIP_GRID.points))
    got = Mg1Workload(delta).values(path, SimpleNamespace(mean=lam * delta / mu))
    s = ROUND_TRIP_GRID.points
    want = s * (1.0 - 0.5) / (s - lam + lam * mu / (mu + s))
    assert rel_err(got, want) <= 1e-6


def test_poisson_round_trip():
    ev = lambda s: np.exp(2.0 * (job_transform(s) - 1.0))
    path = track_log(ev, ROUND_TRIP_GRID, ev(ROUND_TRIP_GRID.points))
    got = PoissonDecompound().values(
        path, SimpleNamespace(zero_fraction=math.exp(-2.0)))
    assert rel_err(got, job_transform(ROUND_TRIP_GRID.points)) <= 1e-6


def test_binomial_round_trip():
    # forward: N ~ binomial(2, 1/2), X = sum of N jobs
    ev = lambda s: (0.5 * job_transform(s) + 0.5) ** 2
    path = track_log(ev, ROUND_TRIP_GRID, ev(ROUND_TRIP_GRID.points))
    got = BinomialDecompound(2).values(path, SimpleNamespace(zero_fraction=0.25))
    assert rel_err(got, job_transform(ROUND_TRIP_GRID.points)) <= 1e-6


def test_negbinomial_round_trip():
    ev = lambda s: 0.5 / (1.0 - 0.5 * job_transform(s))
    path = track_log(ev, ROUND_TRIP_GRID, ev(ROUND_TRIP_GRID.points))
    got = NegBinomialDecompound(1).values(path, SimpleNamespace(zero_fraction=0.5))
    assert rel_err(got, job_transform(ROUND_TRIP_GRID.points)) <= 1e-6


def test_binomial_single_trial_reduction():
    """M=1 equals the direct shift (values - q)/(1 - q) of the transform."""
    rng = replication_rng(31, 0)
    ss = sample_compound_poisson(rng, 1.0, Exponential(1.0), 500)
    grid = build_grid(1.0, 10.0, 1.0)
    got = apply_map(BinomialDecompound(1), ss, grid).values
    vals = empirical_transform_grid(ss, grid).values
    q = ss.zero_fraction
    assert np.max(np.abs(got - (vals - q) / (1.0 - q))) <= 1e-10


def test_negbinomial_single_trial_reduction():
    rng = replication_rng(31, 1)
    ss = sample_compound_poisson(rng, 1.0, Exponential(1.0), 500)
    grid = build_grid(1.0, 10.0, 1.0)
    got = apply_map(NegBinomialDecompound(1), ss, grid).values
    vals = empirical_transform_grid(ss, grid).values
    q = ss.zero_fraction
    assert np.max(np.abs(got - (1.0 - q / vals) / (1.0 - q))) <= 1e-10


# --- domain events ----------------------------------------------------------

def test_mg1_domain_check():
    mg1 = Mg1Workload(0.1)
    mg1.check(SampleSet([0.005, 0.005]))
    mg1.check(SampleSet([0.0, 0.0]))  # mean 0 included
    mg1.check(SampleSet([0.0, 0.19]))  # mean just below delta
    with pytest.raises(DomainEventFailed):
        mg1.check(SampleSet([0.1, 0.1]))  # boundary excluded
    with pytest.raises(DomainEventFailed):
        mg1.check(SampleSet([0.5]))


def test_decompound_domain_check():
    for transform_map in (PoissonDecompound(), BinomialDecompound(2),
                          NegBinomialDecompound(3)):
        transform_map.check(SampleSet([0.0, 1.0]))
        transform_map.check(SampleSet([0.0] * 99 + [1.0]))  # one nonzero slot
        transform_map.check(SampleSet([0.0] + [1.0] * 99))  # one empty slot
        with pytest.raises(DomainEventFailed):
            transform_map.check(SampleSet([0.0, 0.0]))  # all empty excluded
        with pytest.raises(DomainEventFailed):
            transform_map.check(SampleSet([1.0, 2.0]))  # none empty excluded


def test_domain_check_dispatch():
    ss = SampleSet([0.0, 0.05])
    domain_check(Mg1Workload(0.1), ss)
    domain_check(PoissonDecompound(), ss)
    with pytest.raises(DomainEventFailed):
        domain_check(Mg1Workload(0.01), ss)


# --- applied to samples -----------------------------------------------------

def test_all_zero_samples_give_unit_workload_transform():
    grid = build_grid(1.0, 10.0, 1.0)
    got = apply_map(Mg1Workload(0.1), SampleSet(np.zeros(8)), grid)
    assert got.grid is grid
    assert np.allclose(got.values, 1.0, atol=1e-12)


def test_pipeline_layers_hand_back_read_only_values():
    # the grid transform, the tracked log and the mapped values must each be
    # read-only
    ss = sample_compound_poisson(replication_rng(34, 0), 1.0, Exponential(20.0), 200)
    grid = build_grid(1.0, 10.0, 1.0)
    observed = empirical_transform_grid(ss, grid)
    log_path = track_log(partial(empirical_transform_eval, ss), grid,
                         values=observed.values)
    mapped = apply_map(Mg1Workload(0.1), ss, grid)
    for got in (observed, log_path, mapped):
        assert got.grid is grid and got.values.shape == (grid.n_points,)
        with pytest.raises(ValueError):
            got.values[0] = 0.0


def test_each_stage_hands_out_read_only_values_it_owns(monkeypatch):
    # every stage builds its result through the one copying constructor: its
    # values are a fresh read-only array that shares no memory with its input.
    # Both grid transforms refine from their own spread, the second's phases
    # turning past 2 pi
    grid = build_grid(1.0, 10.0, 1.0)
    period = 2.0 * math.pi / grid.spacing
    kept = sample_compound_poisson(replication_rng(35, 0), 1.0, Exponential(20.0), 200)
    turned = SampleSet(np.concatenate([kept.values, [1.5 * period]]))
    spread, spreads = transforms._spread, []

    def counted(*args):
        spreads.append(args)
        return spread(*args)

    monkeypatch.setattr(transforms, "_spread", counted)
    for ss in (kept, turned):
        spreads.clear()
        observed = empirical_transform_grid(ss, grid)
        fine = observed.refined()
        assert len(spreads) == 1
        assert fine.grid.m == 4 * grid.m
        given = np.array(observed.values)
        log_path = track_log(partial(empirical_transform_eval, ss), grid, given)
        mapped = apply_map(Mg1Workload(0.1), ss, grid)
        for got, given_to in ((observed, ss.values), (fine, observed.values),
                              (log_path, given), (mapped, ss.values)):
            assert not got.values.flags.writeable
            assert got.values.base is None
            assert not np.shares_memory(got.values, given_to)


def test_applied_maps_real_at_anchor_and_symmetric():
    rng = replication_rng(32, 0)
    grid = build_grid(1.0, 10.0, 1.0)
    cases = [
        (Mg1Workload(0.1), sample_compound_poisson(rng, 1.0, Exponential(20.0), 2000)),
        (PoissonDecompound(), sample_compound_poisson(rng, 1.0, Exponential(1.0), 2000)),
        (BinomialDecompound(2), sample_compound_poisson(rng, 1.0, Exponential(1.0), 2000)),
        (NegBinomialDecompound(3), sample_compound_poisson(rng, 1.0, Exponential(1.0), 2000)),
    ]
    # the contour y <= 0 that the half grid leaves out: its tracked log is
    # the conjugate, and each map must give the conjugate values there
    reflected = SimpleNamespace(points=np.conj(grid.points), n_points=grid.n_points)
    for transform_map, ss in cases:
        got = apply_map(transform_map, ss, grid).values
        assert abs(got[0].imag) <= 1e-12
        assert 0.0 < got[0].real <= 1.0 + 1e-12
        log_path = track_log(partial(empirical_transform_eval, ss), grid,
                             values=empirical_transform_grid(ss, grid).values)
        lower = transform_map.values(
            TransformValues(reflected, np.conj(log_path.values)), ss)
        assert np.allclose(lower, np.conj(got), atol=1e-12)


def test_estimated_transform_tracks_analytic_one():
    """On forward-model samples the mapped values stay near the exact law."""
    mu, lam, delta = 20.0, 10.0, 0.1
    grid = build_grid(1.0, 5.0, 1.0)
    s = grid.points
    want = s * (1.0 - 0.5) / (s - lam + lam * mu / (mu + s))
    probe = np.linspace(0, grid.n_points - 1, 5).astype(int)
    hits = 0
    for r in range(50):
        rng = replication_rng(33, r)
        ss = sample_compound_poisson(rng, lam * delta, Exponential(mu), 10**4)
        got = apply_map(Mg1Workload(delta), ss, grid).values
        hits += int(np.all(np.abs(got[probe] - want[probe]) < 0.05))
    assert hits >= 48  # spec floor is 95% of 50


def test_plateaus():
    ss = SampleSet([0.05, 0.0, 0.05, 0.0])
    assert Mg1Workload(0.1).plateau(ss) == pytest.approx(1.0 - 0.025 / 0.1)
    assert PoissonDecompound().plateau(ss) == 0.0
    assert BinomialDecompound(2).plateau(ss) == 0.0
    assert NegBinomialDecompound(2).plateau(ss) == 0.0


def test_map_parameter_validation():
    with pytest.raises(ParameterError):
        Mg1Workload(0.0)
    with pytest.raises(ParameterError):
        BinomialDecompound(0)
    with pytest.raises(ParameterError):
        NegBinomialDecompound(-1)


def test_refinement_reuses_the_sorted_and_spread_samples(monkeypatch):
    # compound binomial totals whose log needs the grid 4 times finer: it
    # is transformed from the quadrature grid's spread, so the samples are
    # sorted and their moments formed once, and only the FFT runs twice
    ss = sample_compound(np.random.default_rng(0), BinomialCounts(4, 0.75),
                         Gamma(20.0, 0.05), 2000)
    calls = {"sort": 0, "run_moments": 0, "modes": 0}
    np_sort = np.sort

    def sort(a, *args, **kwargs):
        calls["sort"] += a is ss.values
        return np_sort(a, *args, **kwargs)

    def counting(name):
        fn = getattr(transforms, "_" + name)

        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    mode_values = transforms._mode_values

    def modes(sums, deconv, samples, anchor=None):
        # grid values pass their anchor, one FFT each; point sums do not
        calls["modes"] += anchor is not None
        return mode_values(sums, deconv, samples, anchor)

    monkeypatch.setattr(np, "sort", sort)
    monkeypatch.setattr(transforms, "_run_moments",
                        counting("run_moments"))
    monkeypatch.setattr(transforms, "_mode_values", modes)
    apply_map(BinomialDecompound(4), ss, build_grid(1.0, 45.0, 1.5))
    assert calls == {"sort": 1, "run_moments": 1, "modes": 2}


@pytest.mark.parametrize("n, seed, midpoints", [(2000, 8, 5), (10**5, 3, 12)])
def test_bisection_midpoints_are_summed_from_the_spread(n, seed, midpoints,
                                                        monkeypatch):
    # compound binomial totals whose log is bisected on the grid 4 times
    # finer: every midpoint goes through empirical_transform_eval, which is
    # given the grid transform and sums it from the kept spread, never one
    # exponential per sample. The mapped values match those from direct
    # sums to rounding
    ss = sample_compound(np.random.default_rng(seed), BinomialCounts(4, 0.75),
                         Gamma(20.0, 0.05), n)
    grid = build_grid(1.0, math.sqrt(n), 1.5)
    evaluate = transform_maps.empirical_transform_eval
    sizes = []

    def counted(samples, s, grid_transform=None):
        assert grid_transform is not None
        sizes.append(np.size(s))
        return evaluate(samples, s, grid_transform=grid_transform)

    def direct(*args):
        raise AssertionError("a midpoint was summed directly")

    monkeypatch.setattr(transform_maps, "empirical_transform_eval", counted)
    monkeypatch.setattr(transforms, "_exp_terms", direct)
    got = apply_map(BinomialDecompound(4), ss, grid).values
    assert sum(sizes) == midpoints
    monkeypatch.undo()
    monkeypatch.setattr(transform_maps, "empirical_transform_eval",
                        lambda samples, s, grid_transform: evaluate(samples, s))
    want = apply_map(BinomialDecompound(4), ss, grid).values
    assert np.max(np.abs(got - want)) <= 1e-12
