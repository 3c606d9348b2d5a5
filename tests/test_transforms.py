"""Empirical and analytic transform behavior, sample sets, sample files."""
import cmath
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from laptail import transforms
from laptail.errors import ParameterError, SampleFileError
from laptail.inversion import build_grid
from laptail.logtrack import track_log
from laptail.simulation import (BinomialCounts, sample_compound,
                                sample_compound_poisson)
from laptail.transform_maps import BinomialDecompound, apply_map
from laptail.transforms import (_KERNEL_DEGREE, _MOMENT_BLOCK,
                                _PRODUCT_BLOCK, _SPREAD_HALF_WIDTH,
                                _SPREAD_OFFSETS, ContourGrid, Deterministic,
                                Exponential, Gamma, SampleSet,
                                TransformValues, _kernel, _run_moments,
                                empirical_transform_eval,
                                empirical_transform_grid, load_samples,
                                save_samples)
from oracles import direct_transform

# Oracle for samples [1, 2] at s = 1, computed independently by hand:
# (exp(-1) + exp(-2)) / 2.
_ELT_ONE_TWO_AT_ONE = 0.2516073622040275

sample_arrays = arrays(np.float64, st.integers(1, 40),
                       elements=st.floats(0.0, 1e6, allow_nan=False))


def grid_for(c: float = 1.0, t_max: float = 10.0) -> ContourGrid:
    return build_grid(c, t_max, 1.0)


# --- SampleSet -------------------------------------------------------------

def test_sampleset_summaries_cached():
    ss = SampleSet([0.0, 1.5, 0.0, 2.0])
    assert ss.n == 4
    assert ss.mean == pytest.approx(0.875)
    assert ss.zero_fraction == 0.5
    assert ss.max_value == 2.0


def test_sampleset_rejects_bad_values():
    for bad in ([], [-1.0], [np.nan], [np.inf], [[1.0, 2.0]]):
        with pytest.raises(ParameterError):
            SampleSet(bad)


def test_sampleset_refuses_values_whose_sum_overflows():
    # each value is finite, their sum is not: the mean would be inf
    with pytest.raises(ParameterError, match="finite sum"):
        SampleSet([1e308, 1e308])
    assert SampleSet([1e308, 0.0]).mean == 5e307


@pytest.mark.parametrize("build, message", [
    (lambda: TransformValues(ContourGrid(1.0, 1.0, 2), np.ones(2)),
     "one value per grid point required"),
    (lambda: Deterministic(-1.0),
     "deterministic point must be finite and >= 0")],
    ids=["values-per-point", "deterministic-point"])
def test_model_refusals(build, message):
    with pytest.raises(ParameterError) as exc:
        build()
    assert str(exc.value) == message


def test_sampleset_is_immutable():
    ss = SampleSet([1.0, 2.0])
    with pytest.raises(ValueError):
        ss.values[0] = 5.0


def test_zero_tolerance_threshold():
    # zeros are exact: 1e-12 is not a zero
    exact = SampleSet([0.0, 1e-12, 1.0])
    assert exact.zero_fraction == pytest.approx(1 / 3)


def test_sample_mean_examples():
    assert SampleSet([0.0, 0.0, 0.0]).mean == 0.0
    assert SampleSet([1.0, 3.0]).mean == 2.0
    assert SampleSet([0.2, 0.4, 0.9]).mean == pytest.approx(0.5)


def test_zero_fraction_examples():
    assert SampleSet([0.0, 0.0]).zero_fraction == 1.0
    assert SampleSet([1.0, 2.0, 3.0]).zero_fraction == 0.0


# --- empirical transform ---------------------------------------------------

def test_empirical_eval_at_zero_samples():
    assert empirical_transform_eval(SampleSet([0.0, 0.0]), 3 + 2j) == 1 + 0j


def test_empirical_eval_log_two():
    assert empirical_transform_eval(SampleSet([math.log(2)]), 1.0) == pytest.approx(0.5)


def test_empirical_eval_hand_oracle():
    got = empirical_transform_eval(SampleSet([1.0, 2.0]), 1.0)
    assert got.real == pytest.approx(_ELT_ONE_TWO_AT_ONE, abs=1e-15)
    assert got.imag == 0.0


def test_empirical_eval_rejects_left_half_plane():
    with pytest.raises(ParameterError):
        empirical_transform_eval(SampleSet([1.0]), -0.1 + 1j)


@pytest.mark.filterwarnings("error")
def test_empirical_eval_skips_underflowed_terms():
    # e^{-1e308} is exactly 0, but the phase 5e308 overflows and made the
    # term nan; the sum must be the remaining term's share
    ss = SampleSet([1e308, 1.0])
    want = cmath.exp(-(1 + 5j)) / 2
    scalar = empirical_transform_eval(ss, 1 + 5j)
    array = empirical_transform_eval(ss, np.array([1 + 5j, 1 - 5j]))
    for got in (scalar, array[0], array[1].conjugate()):
        assert cmath.isfinite(got)
        assert abs(got - want) <= 1e-15


@given(sample_arrays, st.floats(0.0, 50.0), st.floats(-200.0, 200.0))
def test_empirical_modulus_bound(values, re, im):
    ss = SampleSet(values)
    assert abs(empirical_transform_eval(ss, complex(re, im))) <= 1.0 + 1e-12


@given(sample_arrays, st.floats(0.0, 50.0), st.floats(-200.0, 200.0))
def test_empirical_conjugate_symmetry(values, re, im):
    ss = SampleSet(values)
    s = complex(re, im)
    a = empirical_transform_eval(ss, s)
    b = empirical_transform_eval(ss, s.conjugate())
    assert abs(b - a.conjugate()) <= 1e-12 * max(abs(a), 1e-300)


@given(sample_arrays, st.floats(0.0, 20.0), st.floats(1e-6, 20.0))
def test_empirical_real_axis_monotone(values, s1, gap):
    ss = SampleSet(values)
    lo = empirical_transform_eval(ss, s1).real
    hi = empirical_transform_eval(ss, s1 + gap).real
    assert hi <= lo + 1e-12


@pytest.mark.parametrize("case", ["wide sample", "huge value", "infinite s",
                                  "subnormal s", "single point"])
def test_point_evaluation_matches_the_direct_sum(case):
    # a sample spanning far, a huge value, an infinite or subnormal |s| and a
    # single point: each is one plain sum of exponentials per point
    x = np.random.default_rng(22).exponential(1.0, 3000)
    s = np.array([1.0 + 10.0j, 1.0 + 20.0j])
    if case == "wide sample":
        x[0] = 513461.0
    elif case == "huge value":
        x[0] = 1e300
    elif case == "infinite s":
        s = np.array([np.inf + 0j, 1.0 + 0j])
    elif case == "subnormal s":
        s = np.array([5e-324 + 0j, 0j])
    else:
        s = s[:1]
    ss = SampleSet(x)
    got = empirical_transform_eval(ss, s)
    finite = np.isfinite(s)
    assert np.max(np.abs(got[finite] - direct_transform(ss, s[finite]))) <= 1e-15


def grid_and_direct(ss: SampleSet, grid: ContourGrid):
    """NUFFT grid values and the direct oracle on the same points."""
    return (empirical_transform_grid(ss, grid).values,
            direct_transform(ss, grid.points))


def test_grid_evaluation_matches_direct():
    """NUFFT grid agrees with direct evaluation to 1e-10 relative."""
    rng = np.random.default_rng(10)
    ss = SampleSet(rng.exponential(0.05, 500))
    got, direct = grid_and_direct(ss, grid_for(t_max=30.0))
    assert np.max(np.abs(got - direct) / np.abs(direct)) <= 1e-10


def test_grid_evaluation_long_contour_with_zero_atom():
    rng = np.random.default_rng(15)
    x = rng.exponential(0.05, 2000)
    x[rng.random(x.size) < 0.3] = 0.0
    grid = ContourGrid(1.0, 400.0, 8000)
    got, direct = grid_and_direct(SampleSet(x), grid)
    assert np.max(np.abs(got - direct) / np.abs(direct)) <= 1e-10


# Largest absolute error of the grid transform against direct evaluation
# for samples of continuous laws, as stated in the transforms docstrings:
# samples of Exp(mean 0.05), whose phases all sit near 0, reached 8.9e-15
# over seeds 0-4 at 201 to 32 001 points; Exp(mean 1) and Gamma(20, 0.05)
# samples stayed below 3.3e-15.
GRID_ERROR_BOUND = 1.5e-14


# Tied samples share a cell. The grid transform sums each cell's moments
# pairwise over the sorted samples, so their rounding barely grows with
# the number of ties: against the exact e^{-0.3 s} at T = 400 it measured
# 1.4e-14 to 1.9e-14 on 8 001 points and 2.6e-14 on the 1 601 of
# build_grid, for 10^4, 10^5 and 10^6 copies of 0.3, as the transforms
# docstrings state. The point evaluator sums each point's terms pairwise
# and is held to the same bound.
TIED_ERROR_BOUND = 5e-14


def test_tied_samples_error_bound():
    # on 8 001 points, and on the 1 601 that build_grid gives every T = 400
    # estimate
    for grid in (ContourGrid(1.0, 400.0, 8000), build_grid(1.0, 400.0, 1.0)):
        exact = np.exp(-0.3 * grid.points)
        for copies in (10**4, 10**5, 10**6):
            ss = SampleSet(np.full(copies, 0.3))
            got = empirical_transform_grid(ss, grid).values
            assert np.max(np.abs(got - exact)) <= TIED_ERROR_BOUND, \
                (grid.n_points, copies)
    # a direct sum of 10^4 samples at 8 001 points already takes seconds
    grid = ContourGrid(1.0, 400.0, 8000)
    got = empirical_transform_eval(SampleSet(np.full(10**4, 0.3)), grid.points)
    assert np.max(np.abs(got - np.exp(-0.3 * grid.points))) <= TIED_ERROR_BOUND


def test_grid_transform_is_symmetric_in_the_samples():
    # the grid transform sorts the samples, so their order changes no bit:
    # M/G/1 slot totals with their zeros, ties and samples whose weight
    # underflows, more nonzero samples than one moment block holds
    rng = np.random.default_rng(22)
    x = np.concatenate([rng.gamma(rng.poisson(1.0, 8000), 0.05),
                        np.full(500, 0.3), [800.0, 1e6, 1e12]])
    assert np.count_nonzero(x) > _MOMENT_BLOCK
    grid = build_grid(1.0, 400.0, 1.0)
    want, direct = grid_and_direct(SampleSet(x), grid)
    assert np.max(np.abs(want - direct)) <= GRID_ERROR_BOUND
    for _ in range(3):
        shuffled = SampleSet(rng.permutation(x))
        assert np.array_equal(empirical_transform_grid(shuffled, grid).values,
                              want)


def test_grid_evaluation_widest_mode_range():
    # 32 001 modes at T = 400: the FFT, not the spreading, dominates, and
    # the top modes carry the largest deconvolution factor
    rng = np.random.default_rng(17)
    ss = SampleSet(rng.exponential(0.05, 2000))
    grid = ContourGrid(1.0, 400.0, 32000)
    assert grid.n_points == 32001
    got, direct = grid_and_direct(ss, grid)
    assert np.max(np.abs(got - direct)) <= GRID_ERROR_BOUND


@pytest.mark.parametrize("t_max, points", [(10.0, 201), (100.0, 2001),
                                           (400.0, 8001)])
def test_grid_error_bound_for_samples_near_zero(t_max, points):
    grid = ContourGrid(1.0, t_max, points - 1)
    for seed in range(5):
        ss = SampleSet(np.random.default_rng(seed).exponential(0.05, 2000))
        got, direct = grid_and_direct(ss, grid)
        assert np.max(np.abs(got - direct)) <= GRID_ERROR_BOUND


def test_grid_evaluation_near_zero_transform():
    # compound binomial (M = 4, p = 0.75) totals of Gamma(20, 0.05) jumps:
    # the transform nearly vanishes on the contour, so relative error means
    # nothing there and the band is absolute
    rng = np.random.default_rng(16)
    ss = sample_compound(rng, BinomialCounts(4, 0.75), Gamma(20.0, 0.05), 2000)
    got, direct = grid_and_direct(ss, build_grid(1.0, math.sqrt(2000), 1.5))
    assert np.min(np.abs(direct)) < 1e-3
    assert np.max(np.abs(got - direct)) <= 1e-12


# values as in the robustness fuzz (up to 1e12, down to 1e-9) plus exact
# zeros and a moderate range that keeps the weights e^{-c x} visible
extreme_arrays = arrays(np.float64, st.integers(1, 30), elements=st.one_of(
    st.just(0.0), st.floats(0.0, 1e-9), st.floats(0.0, 30.0),
    st.floats(0.0, 1e12)))


@settings(max_examples=60, deadline=None)
@given(extreme_arrays, st.floats(0.5, 100.0), st.floats(0.05, 5.0))
# a lone sample on the smallest grid of the fuzz, which broke a kernel fit
# whose coefficient columns came out with different lengths
@example(np.array([5.49197081e-10]), 1.75, 1.0)
def test_grid_evaluation_extreme_values(values, t_max, w):
    ss = SampleSet(values)
    grid = build_grid(1.0, t_max, w)
    got, direct = grid_and_direct(ss, grid)
    assert np.max(np.abs(got)) <= 1.0 + 1e-12
    assert got[0].imag == 0.0
    assert np.max(np.abs(got - direct)) <= 1e-12


# Sample sets whose phases h x mod 2 pi occupy different arcs of the
# circle, built from the period 2 pi / h of the phases and a generator.
ARC_CASES = {
    "narrow arc": lambda period, rng: 1.0 + 0.01 * rng.random(500),
    "across the wrap": lambda period, rng: np.concatenate([
        period + rng.uniform(-0.5, 0.5, 250), rng.uniform(0.0, 0.5, 250)]),
    "just below the wrap": lambda period, rng: period - rng.uniform(0.0, 0.2, 500),
    "single sample": lambda period, rng: np.array([2.7]),
    "one cell": lambda period, rng: np.full(100, 3.0),
    "full circle": lambda period, rng: rng.uniform(0.0, 1.2 * period, 500),
    # the cell of x = 3 on two turns, with other cells between: sorted, its
    # samples form two runs, one from each turn
    "one cell on two turns": lambda period, rng: np.concatenate([
        3.0 + 1e-6 * rng.random(100), rng.uniform(3.5, period - 0.5, 300),
        period + 3.0 + 1e-6 * rng.random(100)]),
}


@pytest.mark.parametrize("case", sorted(ARC_CASES))
def test_grid_evaluation_on_every_arc(case):
    # the NUFFT spreads only over the cells the phases occupy and folds the
    # buffer onto the circle. A long step h = 20/52, near pi/8, puts the wrap
    # at x = 2 pi / h, about 16, where c = 0.1 keeps the weights visible; a short
    # contour keeps every phase y x below 400, since floating point knows
    # the phase only to 1e-16 relative, in any method
    grid = ContourGrid(0.1, 20.0, 52)
    x = ARC_CASES[case](2.0 * math.pi / grid.spacing, np.random.default_rng(18))
    got, direct = grid_and_direct(SampleSet(x), grid)
    assert np.max(np.abs(got - direct)) <= 1e-13


@pytest.mark.parametrize("m", [2, 4, 6])
def test_grid_evaluation_on_grids_smaller_than_the_kernel(m):
    # 12 to 30 cells, fewer than the 32 the kernel spans, so the spread
    # buffer of phases around the whole circle folds in up to five pieces
    grid = ContourGrid(0.1, 20.0, m)
    assert _kernel(grid.n_points).size < _SPREAD_OFFSETS.size
    period = 2.0 * math.pi / grid.spacing
    x = np.random.default_rng(19).uniform(0.0, 3.0 * period, 500)
    got, direct = grid_and_direct(SampleSet(x), grid)
    assert np.max(np.abs(got - direct)) <= GRID_ERROR_BOUND


@pytest.mark.parametrize("largest_phase_below_2pi", [True, False])
def test_grid_evaluation_at_the_phase_reduction_threshold(largest_phase_below_2pi):
    # the largest phase h x just below and just past 2 pi, where the cells
    # of the runs go on into a second turn
    grid = ContourGrid(0.1, 20.0, 52)
    period = 2.0 * math.pi / grid.spacing
    top = period * (1.0 - 1e-12 if largest_phase_below_2pi else 1.0 + 1e-12)
    x = np.append(np.random.default_rng(20).uniform(0.0, period, 300), top)
    assert (grid.spacing * x.max() < 2.0 * math.pi) == largest_phase_below_2pi
    got, direct = grid_and_direct(SampleSet(x), grid)
    assert np.max(np.abs(got - direct)) <= 1e-13


# Arcs of the 32 400-cell grid of 8 001 points (h = 0.05), where the
# largest deconvolution factors meet a buffer far shorter than the grid.
# Samples at the centres of chosen cells give a spread buffer of exactly
# L = (highest cell - lowest cell + 1) + 31 cells, folded onto the grid.
def cells_from(low: int, span: int, count: int, rng) -> np.ndarray:
    """``count`` cells from low to low + span, both ends included."""
    inner = rng.integers(low, low + span + 1, max(count - 2, 0))
    return np.concatenate([[low, low + span], inner])[:count]


LARGE_GRID_ARCS = {
    # L = 240
    "arc of 240 cells": lambda rng, cell: (
        cells_from(1000, 208, 300, rng) + 0.5) * cell,
    # L = 241
    "arc of 241 cells": lambda rng, cell: (
        cells_from(1000, 209, 300, rng) + 0.5) * cell,
    # slot totals of an M/G/1 queue at load 0.5 (Poisson(1) Exp(mean 0.05)
    # jobs), zeros left out: phases from 0 up, so the buffer starts below
    # cell 0 and wraps. L = 162
    "M/G/1 totals across the wrap": lambda rng, cell: rng.gamma(
        rng.poisson(1.0, 2000), 0.05),
    # L = 136
    "away from the wrap": lambda rng, cell: 3.0 + rng.exponential(0.05, 2000),
    # one occupied cell, L = 32. The rounding of the phases y x, about
    # 1e-16 y x e^{-x} in the direct sum and the NUFFT alike, reaches
    # 3e-14 for a lone sample at x = 1; at x = 5 it stays near 2e-15
    "single sample": lambda rng, cell: np.array([5.0]),
    # a buffer of about 10 500 cells, a third of the grid
    "wide arc": lambda rng, cell: rng.exponential(5.0, 2000),
}


@pytest.mark.parametrize("case", sorted(LARGE_GRID_ARCS))
def test_grid_evaluation_on_arcs_of_a_large_grid(case):
    grid = ContourGrid(1.0, 400.0, 8000)
    size = _kernel(grid.n_points).size
    assert size == 32400
    x = LARGE_GRID_ARCS[case](np.random.default_rng(21),
                              2.0 * math.pi / (grid.spacing * size))
    x = x[x > 0.0]
    got, direct = grid_and_direct(SampleSet(x), grid)
    assert np.max(np.abs(got - direct)) <= GRID_ERROR_BOUND


# build_grid gives 9, 41, 181, 721, 1 601 and 2 881 points: 41 is the
# grid of mg1-small at n = 100, 181 that of decompound-mix, 721 the latter
# refined 4 times for log tracking and 2 881 the 721 refined 4 times
@pytest.mark.parametrize("t_max", [1.75, 10.0, 45.0, 180.0, 400.0, 720.0])
def test_kernel_fit_matches_every_column(t_max):
    # the polynomial that spreads a cell's moments stands in for the
    # Gaussian kernel at every offset o and every fraction u of the cell,
    # on the grid build_grid gives and on one at step 0.05
    u = np.linspace(0.0, 1.0, 20001)
    t = 2.0 * u - 1.0
    for grid in (build_grid(1.0, t_max, 1.0),
                 ContourGrid(1.0, t_max, 2 * math.ceil(10.0 * t_max))):
        kernel = _kernel(grid.n_points)
        fitted = np.vander(t, kernel.poly.shape[0], increasing=True) @ kernel.poly
        exact = np.exp(-kernel.alpha * (u[:, None] - _SPREAD_OFFSETS) ** 2)
        assert fitted.shape == exact.shape == (u.size, 32)
        assert np.max(np.abs(fitted - exact)) <= 1e-15


# Samples of grids refined from T = 45 grids of 181 points (h = 1/4), each
# with some zeros; ``period`` is 2 pi / h, where the phases reach 2 pi
REFINED_CASES = {
    # a transform near 0 on the contour, as decompound-mix's binomial jobs
    "binomial totals": (1.0, lambda rng, period: sample_compound(
        rng, BinomialCounts(4, 0.75), Gamma(20.0, 0.05), 2000).values),
    # phases all near 0, so the spread starts below periodic cell 0
    "Exp(mean 0.05)": (1.0, lambda rng, period: np.concatenate([
        np.zeros(300), rng.exponential(0.05, 1700)])),
    # the spread ends above the last periodic cell; c = 0.1 keeps the
    # weights of x near 25 visible
    "phases just below 2 pi": (0.1, lambda rng, period: np.concatenate([
        np.zeros(50), period * (1.0 - rng.uniform(1e-9, 0.02, 450))])),
    "tied": (1.0, lambda rng, period: np.repeat([0.0, 0.3, 1.1, 2.0], 500)),
}


def spread_again(*args):
    raise AssertionError("the samples were spread again")


@pytest.mark.parametrize("case", sorted(REFINED_CASES))
def test_refined_grid_values_match_the_direct_sum(case, monkeypatch):
    # the grid 4 times finer over the same [0, T] takes the coarse grid's
    # spread, folded onto 4 times as many cells: no sample is sorted or
    # spread again, and the values keep the grid transform's bound
    c, draw = REFINED_CASES[case]
    grid = ContourGrid(c, 45.0, 180)
    period = 2.0 * math.pi / grid.spacing
    ss = SampleSet(draw(np.random.default_rng(24), period))
    assert 0.0 < ss.zero_fraction < 1.0
    observed = empirical_transform_grid(ss, grid)
    monkeypatch.setattr(transforms, "_spread", spread_again)
    fine = observed.refined()
    assert (fine.grid.c, fine.grid.t_max, fine.grid.m) == (c, 45.0, 720)
    direct = direct_transform(ss, fine.grid.points)
    assert np.max(np.abs(fine.values - direct)) <= GRID_ERROR_BOUND


@pytest.mark.parametrize("c, turns", [
    (0.1, 1.5), (0.1, 0.999), (0.1, 20.0),
    # the weights of x near 199 turns stay visible
    (0.01, 199.0),
    # c = 1, the abscissa of every estimate: 28 turns reach x = 704, where
    # the weights are about to underflow
    (1.0, 28.0)])
def test_grid_refined_from_phases_that_wrap_uses_its_spread(c, turns,
                                                           monkeypatch):
    # phases over 0.999 of a turn, whose spread overlaps itself on the
    # periodic grid, and over many turns: the runs keep their unreduced
    # cells, so the grid and the finer grid folded from them, with no
    # sample spread again, keep the grid transform's bound. Measured: at
    # most 1.8e-15 (c = 0.01)
    grid = ContourGrid(c, 45.0, 180)
    period = 2.0 * math.pi / grid.spacing
    rng = np.random.default_rng(25)
    ss = SampleSet(np.concatenate([np.zeros(50), [turns * period],
                                   rng.uniform(0.0, turns * period, 450)]))
    observed = empirical_transform_grid(ss, grid)
    direct = direct_transform(ss, grid.points)
    assert np.max(np.abs(observed.values - direct)) <= GRID_ERROR_BOUND
    monkeypatch.setattr(transforms, "_spread", spread_again)
    fine = observed.refined()
    assert fine.grid.m == 4 * grid.m
    direct = direct_transform(ss, fine.grid.points)
    assert np.max(np.abs(fine.values - direct)) <= GRID_ERROR_BOUND


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="np.longdouble is a plain double here")
@pytest.mark.parametrize("turns", [199.0, 50.0])
def test_grid_values_over_many_turns_match_extended_precision(turns):
    # samples up to many turns out at c = 0.01 on the 1 601 points of a
    # T = 400 grid, against sums of the exact terms formed in extended
    # precision. The whole turns are taken off each phase exactly first, so
    # a sample's cell and fraction carry the rounding of its reduced phase
    # alone: measured 1.4e-14 (199 turns) and 2.4e-14 (50 turns), and at
    # most 3.4e-14 over seeds 20 to 31, where the direct sums in double
    # reached 3.1e-14. Formed from the unreduced phases they were 3.6e-14
    # and 8.4e-14, and at least 6.9e-14 for 50 turns over those seeds
    grid = ContourGrid(0.01, 400.0, 1600)
    period = 2.0 * math.pi / grid.spacing
    rng = np.random.default_rng(25)
    ss = SampleSet(np.concatenate([np.zeros(50), [turns * period],
                                   rng.uniform(0.0, turns * period, 450)]))
    x = ss.values.astype(np.longdouble)
    phases = np.multiply.outer(np.arange(grid.n_points, dtype=np.longdouble)
                               * (np.longdouble(grid.t_max) / grid.m), x)
    weights = np.exp(-np.longdouble(grid.c) * x) / x.size
    exact = ((np.cos(phases) @ weights).astype(float)
             - 1j * (np.sin(phases) @ weights).astype(float))
    got = empirical_transform_grid(ss, grid).values
    assert np.max(np.abs(got - exact)) <= 4e-14


def test_refined_grids_share_the_grid_and_deconvolution_kept_per_grid():
    # the finer grid and its deconvolution depend on the grid alone: grid
    # transforms of different samples refine onto one grid object, and
    # their values equal bit for bit those built after the cache is cleared
    kept_grids = transforms._refined_grid
    grid = build_grid(1.0, 45.0, 1.5)
    period = 2.0 * math.pi / grid.spacing
    rng = np.random.default_rng(27)
    draws = [REFINED_CASES[case][1](rng, period)
             for case in ("binomial totals", "tied")]
    observed = [empirical_transform_grid(SampleSet(x), grid) for x in draws]
    kept_grids.cache_clear()
    first = [transform.refined() for transform in observed]
    fine, deconv = kept_grids(grid.c, grid.t_max, grid.m)
    assert first[0].grid is first[1].grid is fine
    assert (fine.c, fine.t_max, fine.m) == (grid.c, grid.t_max, 4 * grid.m)
    kernel = _kernel(grid.n_points)
    assert np.array_equal(deconv, transforms._deconvolution(
        kernel.size, kernel.tau, np.arange(fine.n_points) / 4))
    assert not deconv.flags.writeable
    with pytest.raises(ValueError):
        deconv[0] = 0.0
    kept_grids.cache_clear()
    for transform, kept in zip(observed, first):
        built = transform.refined()
        assert built.grid is not kept.grid
        assert built.values.tobytes() == kept.values.tobytes()
    # once the cache is full, the least recently used grid goes first: the
    # grids of T = 10 and T = 400 push out the one of T = 45
    four = observed[0].refined().grid
    assert four is built.grid
    others = [empirical_transform_grid(SampleSet(draws[0]),
                                       build_grid(1.0, t_max, 1.5))
              for t_max in (10.0, 400.0)]
    for transform in others:
        transform.refined()
        assert kept_grids.cache_info().currsize <= 2
    assert kept_grids.cache_info().maxsize == 2
    assert others[1].refined().grid is others[1].refined().grid
    assert observed[0].refined().grid is not four
    # each takes 24 bytes per point of the finer grid with its points built
    fine, deconv = kept_grids(grid.c, grid.t_max, grid.m)
    assert fine.points.nbytes + deconv.nbytes == 24 * fine.n_points
    kept_grids.cache_clear()


def test_no_finer_grid_past_the_grid_cap(monkeypatch):
    # the grid 4 times finer is given while it has at most
    # _MAX_GRID_POINTS points, and None past that. The estimate then
    # tracks its log as without a finer grid: it bisects the wide steps
    # that the chord certificate leaves on the grid itself
    grid = build_grid(1.0, 45.0, 1.5)
    ss = sample_compound(np.random.default_rng(4), BinomialCounts(4, 0.75),
                         Gamma(20.0, 0.05), 2000)
    observed = empirical_transform_grid(ss, grid)
    monkeypatch.setattr(transforms, "_MAX_GRID_POINTS", 4 * grid.m + 1)
    assert observed.refined().grid.n_points == 4 * grid.m + 1
    monkeypatch.setattr(transforms, "_MAX_GRID_POINTS", 4 * grid.m)
    assert observed.refined() is None
    asked = []

    def refine():
        asked.append(1)
        return observed.refined()

    log_path = track_log(
        partial(empirical_transform_eval, ss, grid_transform=observed),
        grid, observed.values, refine, observed.curvature_bound)
    assert asked == [1]
    binomial = BinomialDecompound(4)
    assert np.array_equal(apply_map(binomial, ss, grid).values,
                          binomial.values(log_path, ss))


def contour_ordinates(grid: ContourGrid, seed: int) -> np.ndarray:
    """Random ordinates over [0, T] and the hard ones: y -> 0+, h / 2 and
    T-, and T itself."""
    rng = np.random.default_rng(seed)
    return np.concatenate([
        rng.uniform(0.0, grid.t_max, 60),
        [5e-324, 1e-9, 0.5 * grid.spacing,
         np.nextafter(grid.t_max, 0.0), grid.t_max]])


def no_direct_sums(*args):
    raise AssertionError("a point was summed directly")


@pytest.mark.parametrize("t_max", [45.0, 400.0])
@pytest.mark.parametrize("case", sorted(REFINED_CASES))
def test_points_summed_from_the_spread_match_the_direct_sum(case, t_max,
                                                            monkeypatch):
    # points of the contour between grid points, summed from the spread the
    # grid transform kept at their fractional modes, keep its error bounds.
    # Measured: 1.0e-14 for Exp(mean 0.05) and 1.4e-14 for the ties at
    # T = 400, where the grids of h = 1/4 have 1 601 points
    c, draw = REFINED_CASES[case]
    grid = ContourGrid(c, t_max, round(4 * t_max))
    period = 2.0 * math.pi / grid.spacing
    ss = SampleSet(draw(np.random.default_rng(24), period))
    observed = empirical_transform_grid(ss, grid)
    s = c + 1j * contour_ordinates(grid, 26)
    monkeypatch.setattr(transforms, "_exp_terms", no_direct_sums)
    got = empirical_transform_eval(ss, s, grid_transform=observed)
    bound = TIED_ERROR_BOUND if case == "tied" else GRID_ERROR_BOUND
    assert np.max(np.abs(got - direct_transform(ss, s))) <= bound
    one = empirical_transform_eval(ss, s[0], grid_transform=observed)
    assert isinstance(one, complex) and one == got[0]


def test_points_of_many_ties_summed_from_the_spread():
    # 10^4 copies of 0.3 at T = 400 against the exact e^{-0.3 s}: 2.8e-14
    grid = build_grid(1.0, 400.0, 1.0)
    ss = SampleSet(np.full(10**4, 0.3))
    observed = empirical_transform_grid(ss, grid)
    s = 1.0 + 1j * contour_ordinates(grid, 27)
    got = empirical_transform_eval(ss, s, grid_transform=observed)
    assert np.max(np.abs(got - np.exp(-0.3 * s))) <= TIED_ERROR_BOUND


@pytest.mark.parametrize("turns", [1.5, 0.999])
def test_points_of_a_transform_without_its_spread_are_summed_directly(turns):
    # the runs of test_grid_refined_from_phases_that_wrap_uses_its_spread
    # span more than a turn of the periodic grid, so the points get the
    # direct sums, bit for bit
    grid = ContourGrid(0.1, 45.0, 180)
    period = 2.0 * math.pi / grid.spacing
    rng = np.random.default_rng(25)
    ss = SampleSet(np.concatenate([np.zeros(50), [turns * period],
                                   rng.uniform(0.0, turns * period, 450)]))
    observed = empirical_transform_grid(ss, grid)
    s = 0.1 + 1j * contour_ordinates(grid, 28)
    assert np.array_equal(
        empirical_transform_eval(ss, s, grid_transform=observed),
        empirical_transform_eval(ss, s))


@pytest.mark.parametrize("off", [
    2.0 + 3.0j,                    # another contour
    0.1 + 46.0j,                   # past T
    np.array([0.1 + 3.0j, 0.1 - 3.0j]),  # below the real axis
])
def test_points_off_the_grid_segment_are_summed_directly(off):
    grid = ContourGrid(0.1, 45.0, 180)
    ss = SampleSet(np.random.default_rng(29).exponential(1.0, 500))
    observed = empirical_transform_grid(ss, grid)
    got = empirical_transform_eval(ss, off, grid_transform=observed)
    assert np.array_equal(got, empirical_transform_eval(ss, off))


def test_point_evaluation_refuses_a_transform_of_other_samples():
    grid = ContourGrid(1.0, 45.0, 180)
    ss = SampleSet([0.5, 1.0, 2.0])
    # equal values, but another sample set
    for other in (empirical_transform_grid(SampleSet(ss.values), grid),
                  TransformValues(grid, np.ones(grid.n_points))):
        with pytest.raises(ParameterError, match="same samples"):
            empirical_transform_eval(ss, 1.0 + 1.0j, grid_transform=other)


def test_grid_values_do_not_hold_the_whole_fft_output():
    # at T = 400 the 1 601 values take 25 616 bytes; as a view of the
    # whole rfft output they held a base of 51 856
    grid = build_grid(1.0, 400.0, 1.0)
    assert grid.n_points == 1601
    ss = SampleSet(np.random.default_rng(30).exponential(1.0, 2000))
    observed = empirical_transform_grid(ss, grid)
    assert observed.values.base is None
    assert observed.values.nbytes == 16 * grid.n_points
    fine = observed.refined().values
    assert fine.base is None


def test_kernel_product_blocks_stay_in_the_calling_thread():
    # OpenBLAS splits a product of 4 x 65 536 multiply-adds or more over
    # its threads, whose second waits for a core on a busy host
    assert ((_KERNEL_DEGREE + 1) * 2 * _SPREAD_HALF_WIDTH * _PRODUCT_BLOCK
            <= 4 * 65536)


def test_piece_moments_match_exact_sums():
    # every row p of the moments against a correctly rounded sum of the
    # rounded terms a t^p over each run, on both paths: more than
    # _MOMENT_BLOCK samples, summed one power at a time, with one-sample
    # runs, runs across multiples of _MOMENT_BLOCK and one run of a whole
    # _MOMENT_BLOCK samples; and the first _MOMENT_BLOCK samples alone,
    # summed from one table of all powers. Each term is rounded once per
    # power of t, and the runs are summed pairwise: over 20 seeds the error
    # reached 3.2 eps times the sum of |a t^p|
    eps = np.finfo(float).eps
    rng = np.random.default_rng(41)
    block = _MOMENT_BLOCK
    n = 3 * block + 300
    a = rng.random(n)
    t = rng.uniform(-1.0, 1.0, n)
    cuts = np.concatenate([
        [0, 1, 2, 3],
        np.sort(rng.choice(np.arange(4, block - 1), 40, replace=False)),
        [block - 1, block, 2 * block, 2 * block + 1],
        np.sort(rng.choice(np.arange(2 * block + 2, 3 * block - 1), 40,
                           replace=False)),
        [3 * block + 150, n - 2, n - 1]])
    assert np.all(np.diff(cuts) > 0)
    for size, starts in ((n, cuts), (block, cuts[cuts < block])):
        got = _run_moments(a[:size], t[:size], starts)
        ends = [*starts[1:], size]
        for p in range(_KERNEL_DEGREE + 1):
            terms = a[:size] * t[:size]**p
            for r, (lo, hi) in enumerate(zip(starts, ends)):
                want = math.fsum(terms[lo:hi])
                scale = float(np.abs(terms[lo:hi]).sum())
                assert abs(got[p, r] - want) <= 8 * eps * scale, (p, lo, hi)


def test_run_moments_do_not_depend_on_the_moment_block(monkeypatch):
    # more nonzero samples than _MOMENT_BLOCK, with 500 spread over cell 80
    # at sorted indices 3 900 to 4 399: their run spans index _MOMENT_BLOCK
    # and is summed pairwise in one pass, as from one table of all powers
    # for every sample
    grid = build_grid(1.0, 400.0, 1.0)
    kernel = _kernel(grid.n_points)
    width = 2.0 * math.pi / (grid.spacing * kernel.size)
    rng = np.random.default_rng(42)
    x = np.sort(np.concatenate([rng.uniform(0.01, 80 * width, 3900),
                                (80 + rng.random(500)) * width,
                                rng.uniform(81 * width, 5.0, 1000)]))
    cells = (x / width).astype(int)
    assert cells[3899] < cells[3900] == cells[4399] < cells[4400]
    a = np.exp(-grid.c * x)
    want = transforms._spread(x, a, grid.spacing, kernel)
    monkeypatch.setattr(transforms, "_MOMENT_BLOCK", x.size)
    got = transforms._spread(x, a, grid.spacing, kernel)
    assert got[0].tobytes() == want[0].tobytes()
    assert got[1].tobytes() == want[1].tobytes()


def test_grid_transform_memory_is_not_dense_in_the_arc():
    # two samples at opposite ends of the circle: the arc is the whole
    # grid but only two cells are occupied. Moments for every cell of the
    # arc would take 15 x 8 bytes per cell. The buffer and the folded grid,
    # then the folded grid and the FFT output, need about 2.1
    grid = ContourGrid(1.0, 1e6, 10**6)
    period = 2.0 * math.pi / grid.spacing
    ss = SampleSet([0.01 * period, 0.99 * period])
    size = _kernel(grid.n_points).size
    tracemalloc.start()
    try:
        empirical_transform_grid(ss, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * size


# 10^6 points (4.05e6 cells) and 32 767 points (2^17 cells)
@pytest.mark.parametrize("m", [10**6, 32766])
def test_grid_transform_memory_on_a_narrow_arc(m):
    # two samples three cells apart: a buffer of 35 cells, folded onto the
    # whole grid; the folded grid, then it and its FFT, need about 2 x 8
    # bytes per cell. The kernel is kept, so it is built before the
    # measurement
    grid = ContourGrid(1.0, 1e6, m)
    size = _kernel(grid.n_points).size
    period = 2.0 * math.pi / grid.spacing
    ss = SampleSet([(0.5 + cell / size) * period for cell in (0.5, 3.5)])
    tracemalloc.start()
    try:
        empirical_transform_grid(ss, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * size


@pytest.mark.parametrize("n", [10**4, 10**5])
def test_grid_transform_memory_per_sample(n):
    # M/G/1 slot totals at T = 400: sorted values, weights, phases, cells
    # and run starts, and the moments' one row of powers, so the peak per
    # sample does not grow with n. Measured: 45 bytes per sample at 10^4,
    # 72 with a table of all powers for 4 096 samples at a time, and 27 at
    # 10^5 with either. The kernel is kept, so it is built before the
    # measurement
    ss = sample_compound_poisson(np.random.default_rng(23), 1.0,
                                 Exponential(20.0), n)
    grid = build_grid(1.0, 400.0, 1.0)
    _kernel(grid.n_points)
    tracemalloc.start()
    try:
        empirical_transform_grid(ss, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 56 * n


def test_grid_transform_keeps_nothing_grid_sized():
    # apart from the kernels, the grid transform keeps nothing between
    # calls. The grids have 131 072, 121 500, 112 500 and 4.05e6 cells, so
    # even 1 byte per cell of the smallest would take 110 KB
    grids = [ContourGrid(1.0, 1e4, m) for m in (32766, 30000, 28000, 10**6)]
    for grid in grids:
        _kernel(grid.n_points)  # kept on their own, outside the measurement
    ss = SampleSet([0.16, 0.1605])
    tracemalloc.start()
    try:
        for grid in grids:
            empirical_transform_grid(ss, grid)
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept <= 64 * 1024


def test_transform_values_copies_a_caller_array():
    grid = grid_for()
    caller = np.ones(grid.n_points, dtype=complex)
    wrapped = TransformValues(grid, caller)
    caller[:] = 2.0
    assert np.all(wrapped.values == 1.0)
    with pytest.raises(ValueError):
        wrapped.values[0] = 0.0


def test_grid_evaluation_examples():
    grid = grid_for()
    ones = empirical_transform_grid(SampleSet([0.0]), grid).values
    assert np.all(ones == 1.0 + 0j)
    single = empirical_transform_grid(SampleSet([1.0]), grid).values
    assert single[0] == pytest.approx(math.exp(-1.0))


# --- contour grid ----------------------------------------------------------

def test_grid_validation():
    g = ContourGrid(c=1.0, t_max=5.0, m=10)
    assert g.spacing == 0.5
    assert g.n_points == 11
    assert g.points.imag[0] == 0.0 and g.points.imag[-1] == 5.0
    assert np.all(np.diff(g.points.imag) > 0)
    assert not g.points.imag.flags.writeable and not g.points.flags.writeable
    for c, t_max in ((0.0, 5.0), (-1.0, 5.0), (math.inf, 5.0),
                     (1.0, 0.0), (1.0, -5.0), (1.0, math.nan)):
        with pytest.raises(ParameterError):
            ContourGrid(c, t_max, 10)
    # odd, below 2, not an int, and a bool
    for m in (5, 1, 0, -2, 4.0, True, None):
        with pytest.raises(ParameterError):
            ContourGrid(1.0, 5.0, m)


def test_grid_ordinates_are_a_view_of_the_points():
    # a grid keeps one array: its ordinates are the read-only imaginary
    # parts of its points, equal to linspace(0, t_max, m + 1) bit for bit
    grid = ContourGrid(1.0, 400.0, 8000)
    assert np.shares_memory(grid.points.imag, grid.points)
    assert not grid.points.imag.flags.writeable
    with pytest.raises(ValueError):
        grid.points.imag[0] = 1.0
    want = np.linspace(0.0, 400.0, 8001)
    assert grid.points.imag.tobytes() == want.tobytes()
    assert np.all(grid.points.real == 1.0)


def test_grid_spacing_reproduces_the_points():
    # the NUFFT places point k at k * spacing; a neighbour difference would
    # carry the rounding of t_max and drift by ~4e-10 over 8000 steps
    grid = ContourGrid(1.0, 400.0, 8000)
    k = np.arange(grid.n_points)
    assert np.max(np.abs(grid.points.imag - k * grid.spacing)) <= 1e-12


# --- analytic models -------------------------------------------------------

def test_analytic_transform_examples():
    assert Exponential(20.0).transform(0.0) == pytest.approx(1.0)
    assert Exponential(1.0).transform(1.0) == pytest.approx(0.5)


def test_model_moments_and_cdfs():
    g = Gamma(2.0, 0.5)
    assert g.mean == pytest.approx(1.0)
    assert g.cdf(0.0) == 0.0
    d = Deterministic(0.3)
    assert d.cdf(0.29) == 0.0 and d.cdf(0.3) == 1.0
    e = Exponential(2.0)
    assert e.cdf(1.0) == pytest.approx(1.0 - math.exp(-2.0))


def test_gamma_transform_on_contour_matches_samples():
    # Monte Carlo sanity for the principal-power branch choice
    rng = np.random.default_rng(12)
    x = rng.gamma(2.0, 0.5, 200_000)
    s = 1.0 + 3.0j
    mc = np.exp(-s * x).mean()
    assert abs(mc - Gamma(2.0, 0.5).transform(s)) < 5e-3


def test_deterministic_sums():
    rng = np.random.default_rng(13)
    out = Deterministic(0.25).sample_sums(rng, np.array([0, 2, 4]))
    assert np.array_equal(out, [0.0, 0.5, 1.0])


# --- sample files ----------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    ss = SampleSet(np.random.default_rng(14).exponential(1.0, 50))
    path = tmp_path / "vals.txt"
    with open(path, "w") as fh:
        save_samples(ss, fh)
    back = load_samples(str(path))
    assert np.array_equal(back.values, ss.values)


def test_load_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("# header\n1.5\n\n 2.5 \n# trailing\n")
    ss = load_samples(str(path))
    assert np.array_equal(ss.values, [1.5, 2.5])


def test_load_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\nnope\n")
    with pytest.raises(SampleFileError) as err:
        load_samples(str(path))
    assert err.value.line == 2
    assert str(path) in str(err.value)


def test_load_rejects_negative_and_nonfinite(tmp_path):
    for token, message in (("-1.0", "negative value"),
                           ("inf", "non-finite value"),
                           ("nan", "non-finite value"),
                           ("nope", "not a number")):
        path = tmp_path / "bad.txt"
        path.write_text(f"# header\n\n{token}\n")
        with pytest.raises(SampleFileError) as err:
            load_samples(str(path))
        assert err.value.line == 3
        assert f"{message}: {token!r}" in str(err.value)


def test_load_skips_byte_order_mark(tmp_path):
    path = tmp_path / "bom.txt"
    path.write_bytes(b"\xef\xbb\xbf1.5\r\n2.5\r3.5\n")
    ss = load_samples(str(path))
    assert np.array_equal(ss.values, [1.5, 2.5, 3.5])


def test_load_reports_non_utf8_line(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xef\xbb\xbf1.0\r\n2.0\r# caf\xe9\n3.0\n")
    with pytest.raises(SampleFileError) as err:
        load_samples(str(path))
    assert err.value.line == 3
    assert str(err.value) == f"{path}:3: not UTF-8 text"


def test_load_empty_file_fails(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(SampleFileError):
        load_samples(str(path))
