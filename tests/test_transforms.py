"""Empirical and analytic transform behavior, sample sets, sample files."""
import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from laptail.errors import ParameterError, SampleFileError
from laptail.inversion import build_grid
from laptail.simulation import BinomialCounts, sample_compound
from laptail.transforms import (CompoundPoisson, ContourGrid, Deterministic,
                                Exponential, Gamma, SampleSet,
                                empirical_transform_eval,
                                empirical_transform_grid, load_samples,
                                save_samples)

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


def test_sampleset_is_immutable():
    ss = SampleSet([1.0, 2.0])
    with pytest.raises(ValueError):
        ss.values[0] = 5.0


def test_zero_tolerance_threshold():
    ss = SampleSet([0.0, 1e-12, 1.0], zero_tol=1e-9)
    assert ss.zero_fraction == pytest.approx(2 / 3)
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


def grid_and_direct(ss: SampleSet, grid: ContourGrid):
    """NUFFT grid values and the direct oracle on the same points."""
    return (empirical_transform_grid(ss, grid).values,
            empirical_transform_eval(ss, grid.points))


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
    grid = build_grid(1.0, 400.0, 1.0)
    assert grid.n_points == 8001
    got, direct = grid_and_direct(SampleSet(x), grid)
    assert np.max(np.abs(got - direct) / np.abs(direct)) <= 1e-10


# Largest absolute error of the grid transform against direct evaluation,
# as stated in the transforms docstrings: samples of Exp(mean 0.05), whose
# phases all sit near 0, reached 1.39e-14 over seeds 0-4 at 201 to 32 001
# points; Exp(mean 1) and Gamma(20, 0.05) samples stayed below 4.1e-15.
GRID_ERROR_BOUND = 1.5e-14


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
    grid = build_grid(1.0, t_max, 1.0)
    assert grid.n_points == points
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
    assert g.ys[0] == 0.0 and g.ys[-1] == 5.0
    assert np.all(np.diff(g.ys) > 0)
    assert not g.ys.flags.writeable and not g.points.flags.writeable
    for c, t_max in ((0.0, 5.0), (-1.0, 5.0), (math.inf, 5.0),
                     (1.0, 0.0), (1.0, -5.0), (1.0, math.nan)):
        with pytest.raises(ParameterError):
            ContourGrid(c, t_max, 10)
    # odd, below 2, not an int, and a bool
    for m in (5, 1, 0, -2, 4.0, True, None):
        with pytest.raises(ParameterError):
            ContourGrid(1.0, 5.0, m)


def test_grid_spacing_reproduces_the_points():
    # the NUFFT places point k at k * spacing; a neighbour difference would
    # carry the rounding of t_max and drift by ~4e-10 over 8000 steps
    grid = build_grid(1.0, 400.0, 1.0)
    k = np.arange(grid.n_points)
    assert np.max(np.abs(grid.ys - k * grid.spacing)) <= 1e-12


# --- analytic models -------------------------------------------------------

def test_analytic_transform_examples():
    assert Exponential(20.0).transform(0.0) == pytest.approx(1.0)
    assert Exponential(1.0).transform(1.0) == pytest.approx(0.5)
    cp = CompoundPoisson(2.0, Exponential(1.0))
    assert cp.transform(1.0) == pytest.approx(math.exp(-1.0))


@given(st.floats(0.1, 5.0), st.floats(0.2, 4.0),
       st.floats(0.0, 3.0), st.floats(-10.0, 10.0))
def test_compound_poisson_identity(intensity, rate, re, im):
    s = complex(re, im)
    jobs = Exponential(rate)
    lhs = CompoundPoisson(intensity, jobs).transform(s)
    rhs = np.exp(intensity * (jobs.transform(s) - 1.0))
    assert lhs == pytest.approx(rhs)


def test_model_moments_and_cdfs():
    g = Gamma(2.0, 0.5)
    assert g.mean == pytest.approx(1.0)
    assert g.second_moment == pytest.approx(1.5)
    assert g.cdf(0.0) == 0.0
    d = Deterministic(0.3)
    assert d.cdf(0.29) == 0.0 and d.cdf(0.3) == 1.0
    e = Exponential(2.0)
    assert e.cdf(1.0) == pytest.approx(1.0 - math.exp(-2.0))
    assert e.second_moment == pytest.approx(0.5)


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
    save_samples(ss, str(path))
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
    for token in ("-1.0", "inf", "nan"):
        path = tmp_path / "bad.txt"
        path.write_text(f"{token}\n")
        with pytest.raises(SampleFileError):
            load_samples(str(path))


def test_load_csv_column(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("t,load\n0,0.5\n1,1.5\n")
    ss = load_samples(str(path), column="load")
    assert np.array_equal(ss.values, [0.5, 1.5])
    with pytest.raises(SampleFileError):
        load_samples(str(path), column="missing")


def test_load_empty_file_fails(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(SampleFileError):
        load_samples(str(path))
