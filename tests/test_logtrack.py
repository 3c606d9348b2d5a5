"""Continuous-logarithm tracking along the contour."""
import math
from functools import partial

import numpy as np
import pytest

from laptail.errors import DomainError, NearZeroTransform, ParameterError
from laptail.inversion import build_grid
from laptail.logtrack import _CHORD_MARGIN, track_log
from laptail.simulation import (BinomialCounts, NegBinomialCounts,
                                PoissonCounts, replication_rng,
                                sample_compound, sample_compound_poisson)
from laptail.transform_maps import _curvature_bound
from laptail.transforms import (ContourGrid, Exponential, Gamma, SampleSet,
                                empirical_transform_eval,
                                empirical_transform_grid)


def exp_jobs_transform(rate: float):
    return lambda s: rate / (rate + s)


def compound_evaluator(intensity: float, rate: float):
    jobs = exp_jobs_transform(rate)
    return lambda s: np.exp(intensity * (jobs(s) - 1.0))


def test_tracked_empirical_log_matches_complex_log_path():
    # the increments used to be np.log of each ratio; on a T = 400 grid no
    # step is bisected, so the path is log f(c) plus their running sum
    rng = np.random.default_rng(24)
    x = rng.exponential(0.05, 10_000)
    x[rng.random(x.size) < 0.5] = 0.0
    ss = SampleSet(x)
    grid = ContourGrid(1.0, 400.0, 8000)
    vals = empirical_transform_grid(ss, grid).values
    ratios = vals[1:] / vals[:-1]
    assert np.all(np.abs(ratios - 1.0) <= 0.5)
    expected = np.log(vals[0].real) + np.concatenate([[0.0], np.cumsum(np.log(ratios))])
    path = track_log(partial(empirical_transform_eval, ss), grid, values=vals)
    assert np.max(np.abs(path.values - expected)) <= 1e-13


# --- tracked log -----------------------------------------------------------

def test_constant_transform_tracks_to_zero():
    grid = build_grid(1.0, 10.0, 1.0)
    path = track_log(lambda s: np.ones_like(s), grid, np.ones_like(grid.points))
    assert np.all(path.values == 0.0)


def test_compound_transform_identity():
    """Tracked log of exp(a(B-1)) must equal a(B-1), not its wrapped version."""
    grid = build_grid(1.0, 10.0, 1.0)
    ev = compound_evaluator(2.0, 1.0)
    path = track_log(ev, grid, ev(grid.points))
    expected = 2.0 * (exp_jobs_transform(1.0)(grid.points) - 1.0)
    assert np.max(np.abs(path.values - expected)) <= 1e-8


def test_unit_point_mass_winds():
    grid = build_grid(0.5, 20.0, 1.0)
    path = track_log(lambda s: np.exp(-s), grid, np.exp(-grid.points))
    assert np.max(np.abs(path.values - (-grid.points))) <= 1e-8
    assert path.values[-1].imag == pytest.approx(-20.0, abs=1e-9)
    # a principal log would have reported a phase inside (-pi, pi]
    assert path.values[-1].imag < -math.pi


def test_agrees_with_principal_log_when_no_winding():
    grid = build_grid(1.0, 5.0, 1.0)
    ev = compound_evaluator(0.8, 1.0)
    path = track_log(ev, grid, ev(grid.points))
    assert np.allclose(path.values, np.log(ev(grid.points)), atol=1e-10)


def test_path_invariants_on_empirical_transforms():
    rng = np.random.default_rng(21)
    grid = build_grid(1.0, 12.0, 1.0)
    for n, intensity in ((10, 0.5), (100, 0.5), (10, 2.0), (100, 2.0)):
        counts = rng.poisson(intensity, n)
        ss = SampleSet(rng.gamma(counts, 1.0))
        vals = empirical_transform_grid(ss, grid).values
        path = track_log(partial(empirical_transform_eval, ss), grid, values=vals)
        # exponential consistency
        rel = np.abs(np.exp(path.values) - vals) / np.abs(vals)
        assert np.max(rel) <= 1e-8
        # real anchor, continuity
        assert path.values[0].imag == 0.0
        assert np.max(np.abs(np.diff(path.values))) < math.pi


def test_refinement_handles_fast_rotation():
    # steep phase: a point mass far out needs bisection on a coarse grid
    grid = build_grid(1.0, 4.0, 1.0)
    # every 4th point of the grid, still a valid uniform half grid
    coarse = ContourGrid(grid.c, grid.t_max, grid.m // 4)
    path = track_log(lambda s: np.exp(-8.0 * s), coarse,
                     np.exp(-8.0 * coarse.points))
    assert np.max(np.abs(path.values - (-8.0 * coarse.points))) <= 1e-8


def test_bisection_calls_the_evaluator_once_per_pass():
    # the coarse grid of the test above: each of its 20 steps turns
    # exp(-8 s) by 8 h = 1.6 rad, its halves by 0.8 rad (|z - 1| = 0.78,
    # still wide) and its quarters by 0.4 rad (0.40, accepted). So two
    # passes, of 20 and 40 midpoints, where one call per midpoint made 60
    coarse = ContourGrid(1.0, 4.0, 20)
    calls = []

    def counting(s):
        calls.append(np.shape(s))
        return np.exp(-8.0 * np.asarray(s))

    path = track_log(counting, coarse, values=np.exp(-8.0 * coarse.points))
    assert np.max(np.abs(path.values - (-8.0 * coarse.points))) <= 1e-8
    assert calls == [(20,), (40,)]


# --- refinement on the finer grid ------------------------------------------

def binomial_totals(seed: int) -> SampleSet:
    """2 000 compound binomial (M = 4, p = 0.75) totals of Gamma(20, 0.05)
    jumps: their transform nearly vanishes near the contour c = 1."""
    rng = np.random.default_rng(seed)
    return sample_compound(rng, BinomialCounts(4, 0.75), Gamma(20.0, 0.05),
                           2000)


def wide_steps(values) -> int:
    return int(np.count_nonzero(np.abs(values[1:] / values[:-1] - 1.0) > 0.5))


def refined_log(ss: SampleSet, grid: ContourGrid, grids: list, calls: list,
                bounds: list | None = None):
    """``track_log`` as ``apply_map`` calls it, the midpoints summed from
    the grid transform's spread, recording the grids it asks that spread
    for, the sizes of its point evaluations and, in ``bounds``, each bound
    on |f''| it asks for."""
    observed = empirical_transform_grid(ss, grid)

    def refine(factor):
        fine = observed.refined(factor)
        grids.append(fine.grid)
        return fine

    def evaluator(s):
        calls.append(np.size(s))
        return empirical_transform_eval(ss, s, grid_transform=observed)

    def curvature():
        bound = _curvature_bound(ss, grid.c)
        if bounds is not None:
            bounds.append(bound)
        return bound

    return track_log(evaluator, grid, observed.values, refine, curvature)


def test_refined_log_equals_the_log_bisected_at_a_fifth_of_the_step():
    # T = 45: the quadrature grid of 181 points (h = 1/4) has every 5th
    # point of the 901 at h = 1/20, where the log is tracked by bisection
    # alone. Every seed has a wide step at h = 1/4 that the chord
    # certificate cannot settle, so it is tracked on the 721 points at
    # h = 1/16; there the certificate settles most wide steps, and five
    # seeds bisect the rest, by 2 to 4 midpoints.
    grid = build_grid(1.0, 45.0, 1.5)
    assert grid.m == 180
    step_20 = ContourGrid(1.0, 45.0, 900)
    midpoints = []
    for seed in range(12):
        ss = binomial_totals(seed)
        grids, calls = [], []
        got = refined_log(ss, grid, grids, calls)
        assert wide_steps(empirical_transform_grid(ss, grid).values) > 0
        assert [(g.c, g.t_max, g.m) for g in grids] == [(1.0, 45.0, 720)]
        midpoints.append(sum(calls))
        want = track_log(partial(empirical_transform_eval, ss), step_20,
                         empirical_transform_grid(ss, step_20).values)
        assert got.grid is grid
        assert np.max(np.abs(got.values - want.values[::5])) <= 1e-11
    assert midpoints == [0, 0, 0, 0, 3, 0, 2, 0, 4, 2, 0, 4]


def test_refinement_runs_only_on_a_grid_with_a_wide_step():
    # Poisson totals of Exp(1) jumps keep their transform far from zero:
    # no step is wide, so neither the finer grid nor the bound on |f''| is
    # ever asked for
    rng = np.random.default_rng(31)
    ss = SampleSet(rng.gamma(rng.poisson(1.0, 2000), 1.0))
    grid = build_grid(1.0, 45.0, 1.5)
    grids, calls, bounds = [], [], []
    got = refined_log(ss, grid, grids, calls, bounds)
    assert grids == [] and calls == [] and bounds == []
    want = track_log(np.exp, grid, empirical_transform_grid(ss, grid).values)
    assert np.array_equal(got.values, want.values)


@pytest.mark.parametrize("seed", range(3))
def test_real_part_of_the_log_is_the_log_of_the_modulus(seed):
    # only the argument is tracked: the real part is log|f| of the values
    # given, bit for bit, on the observations of all four maps, and on a
    # binomial sample whose log is refined and bisected (seed 4: 3 midpoints)
    grid = build_grid(1.0, 45.0, 1.5)
    cases = {**map_samples(seed), "bisected": binomial_totals(4)}
    for name, ss in cases.items():
        grids, calls = [], []
        values = empirical_transform_grid(ss, grid).values
        path = refined_log(ss, grid, grids, calls)
        assert np.array_equal(path.values.real, np.log(np.abs(values))), name
        assert path.values[0].imag == 0.0, name
        if name == "bisected":
            assert len(grids) == 1 and sum(calls) == 3


# --- chord certificate ------------------------------------------------------

def test_certified_wide_steps_take_their_principal_log():
    # e^{i pi y} at h = 1/2: both steps turn by pi/2 (|z - 1| = 1.41, wide)
    # along chords 0.707 from 0, and |f''| = pi^2 puts f within 0.31 of
    # them, so both are settled without a call of the evaluator
    grid = ContourGrid(1.0, 1.0, 2)
    calls = []

    def turning(s):
        calls.append(np.size(s))
        return np.exp(1j * np.pi * np.asarray(s).imag)

    values = turning(grid.points)
    calls.clear()
    path = track_log(turning, grid, values, curvature=lambda: np.pi ** 2)
    assert calls == []
    assert np.max(np.abs(path.values - 1j * np.pi * grid.points.imag)) <= 1e-15


def test_uncertified_wide_steps_are_bisected():
    # a bound whose chord test reaches 0.5e-12 past the chords' distance
    # from 0 is refused by the rounding margin alone, one 2e-12 short of it
    # is accepted: the margin is part of the test
    grid = ContourGrid(1.0, 1.0, 2)
    values = np.array([1.0, 1j, -1.0])
    distance = abs(0.5 + 0.5j)
    assert _CHORD_MARGIN == 1e-12
    for slack, bisected in ((2e-12, False), (0.5e-12, True)):
        calls = []

        def counting(s):
            calls.append(np.size(s))
            return np.exp(1j * np.pi * np.asarray(s).imag)

        bound = 32.0 * (distance - slack)   # bound h^2 / 8 = distance - slack
        path = track_log(counting, grid, values, curvature=lambda: bound)
        assert bool(calls) == bisected
        assert np.max(np.abs(path.values - 1j * np.pi * grid.points.imag)) <= 1e-15
    # e^{i 5 pi y} turns by 5 pi / 2 per step, but its ratios are i as
    # above: taken as certified, the log would be wrong by 2 pi per step.
    # Its bound 25 pi^2 asks the chords to stay 7.7 from 0, so it is bisected
    def fast(s):
        return np.exp(5j * np.pi * np.asarray(s).imag)

    path = track_log(fast, grid, fast(grid.points),
                     curvature=lambda: 25 * np.pi ** 2)
    assert np.max(np.abs(path.values - 5j * np.pi * grid.points.imag)) <= 1e-12


def map_samples(seed: int) -> dict:
    """Samples of the four maps' observations: M/M/1 slot totals and
    Poisson, binomial and negative binomial totals of Gamma(20, 0.05)."""
    rng = replication_rng(seed, 0)
    jobs = Gamma(20.0, 0.05)
    return {
        "mg1": sample_compound_poisson(rng, 1.0, Exponential(20.0), 2000),
        "poisson": sample_compound(rng, PoissonCounts(1.0), jobs, 2000),
        "binomial": sample_compound(rng, BinomialCounts(4, 0.75), jobs, 2000),
        "negbinomial": sample_compound(rng, NegBinomialCounts(3, 0.4), jobs,
                                       2000),
    }


@pytest.mark.parametrize("seed", range(3))
def test_curvature_bound_bounds_second_differences(seed):
    # a second difference over h is h^2 times a weighted mean of f'', so
    # |f_{k-1} - 2 f_k + f_{k+1}| / h^2 <= M2, up to 4e-13 / h^2 of rounding
    # in the grid transform; at y = 0, f'' = -M2, so the bound is tight
    for name, ss in map_samples(seed).items():
        for grid in (build_grid(1.0, 45.0, 1.5), ContourGrid(1.0, 45.0, 1440)):
            h = grid.spacing
            f = empirical_transform_grid(ss, grid).values
            second = np.abs(f[2:] - 2.0 * f[1:-1] + f[:-2]) / h ** 2
            bound = _curvature_bound(ss, grid.c)
            assert np.max(second) <= bound + 4e-13 / h ** 2, name
        assert np.max(second) >= 0.99 * bound, name


@pytest.mark.filterwarnings("error")
def test_curvature_bound_of_huge_samples_is_finite():
    # x^2 alone overflows at 1e300, but x e^{-c x} is at most 1 / (c e)
    ss = SampleSet([0.0, 1.0, 2.0, 1e150, 1e300, 1e300])
    bound = _curvature_bound(ss, 1.0)
    assert math.isfinite(bound)
    assert bound == pytest.approx((math.exp(-1.0) + 4.0 * math.exp(-2.0)) / 6,
                                  rel=1e-15)


def test_no_refinement_past_the_grid_cap():
    # e^{-i phi(y)} turns by 1/4 per step at h = 1 and by 1 on the last
    # step, which is wide; the grid 4 times finer would have 5 000 001
    # points, over build_grid's cap: the step is bisected instead, and the
    # finer grid is never asked for. Turns of 1/4 and 1/2 keep the running
    # sum of the log exact.
    grid = ContourGrid(1.0, 1_250_000.0, 1_250_000)

    def phase(s):
        y = np.asarray(s).imag
        return 0.25 * y + 0.75 * np.maximum(y - (grid.t_max - 1.0), 0.0)

    def turning(s):
        return np.exp(-1j * phase(s))

    grids = []
    got = track_log(turning, grid, turning(grid.points), grids.append)
    assert grids == []
    assert np.max(np.abs(got.values + 1j * phase(grid.points))) <= 1e-9


def test_bisection_failures_raise_near_zero():
    grid = ContourGrid(1.0, 1.0, 2)
    # both steps turn by pi; every midpoint value -1 leaves one half of
    # each step turning by pi, pass after pass
    values = np.array([1.0, -1.0, 1.0])
    calls = []

    def never_settles(s):
        calls.append(np.size(s))
        return np.full(np.shape(s), -1.0 + 0j)

    with pytest.raises(NearZeroTransform, match="failed to converge between"):
        track_log(never_settles, grid, values=values)
    # 40 passes, each with the one pending half of each step
    assert calls == [2] * 40
    with pytest.raises(NearZeroTransform, match=r"vanishes near s = \(1\+0\.25j\)"):
        track_log(lambda s: np.zeros(np.shape(s), dtype=complex), grid,
                  values=values)


def test_vanishing_transform_raises():
    grid = build_grid(1.0, 10.0, 1.0)

    def crossing(s):
        y = np.asarray(s).imag
        return np.asarray(1.0 - y / 5.0, dtype=complex)

    with pytest.raises(NearZeroTransform):
        track_log(crossing, grid, crossing(grid.points))


def test_values_of_another_shape_raise():
    grid = build_grid(1.0, 5.0, 1.0)
    with pytest.raises(ParameterError, match="values must match the grid"):
        track_log(np.exp, grid, np.ones(grid.n_points - 1))


def test_non_real_anchor_raises():
    grid = build_grid(1.0, 5.0, 1.0)
    with pytest.raises(DomainError):
        track_log(lambda s: np.full(np.shape(s), 1j), grid,
                  np.full(grid.n_points, 1j))
    with pytest.raises(DomainError):
        track_log(lambda s: np.full(np.shape(s), -1.0 + 0j), grid,
                  np.full(grid.n_points, -1.0 + 0j))
