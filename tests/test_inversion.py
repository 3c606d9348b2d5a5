"""Contour inversion: grids, quadrature, truncation behavior."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laptail.errors import CapacityError, GridTooCoarse, ParameterError
from laptail.inversion import bromwich_details, build_grid
from laptail.transforms import (ContourGrid, Deterministic, Exponential, Gamma,
                                TransformValues)
from oracles import bromwich_loop, invert_cdf_known, simpson_inversion


def exp_psi(grid):
    return TransformValues(grid, 1.0 / (1.0 + grid.points))


def noisy_psi(grid, seed):
    rng = np.random.default_rng(seed)
    noise = 1e-3 * (rng.standard_normal(grid.n_points)
                    + 1j * rng.standard_normal(grid.n_points))
    return TransformValues(grid, exp_psi(grid).values + noise)


def direct_half_trapezoid(psi, w, plateau=0.0):
    """The inversion at w as the direct half-grid trapezoid sum, and the
    same sum over the moduli of its terms."""
    grid = psi.grid
    integrand = np.exp(grid.points * w) * (psi.values - plateau) / grid.points
    weights = trapezoid_weights(grid.m)
    scale = grid.spacing / math.pi
    return (plateau + scale * (integrand.real @ weights),
            scale * (np.abs(integrand) @ weights))


def rounding_bound(grid, w, magnitude):
    """Deviation of the factored sum from the direct one that
    ``bromwich_details`` states: eps (sqrt(K) + T w) times ``magnitude``."""
    eps = np.finfo(float).eps
    return eps * (math.sqrt(grid.n_points) + grid.t_max * w) * magnitude


def trapezoid_weights(intervals):
    weights = np.ones(intervals + 1)
    weights[[0, -1]] = 0.5
    return weights


def full_contour_trapezoid(psi, grid, w, plateau=0.0):
    """The trapezoid rule for psi over the whole contour [-T, T], divided by
    2 pi, on the symmetric ordinates the half grid ``grid`` reflects to."""
    ys = np.concatenate([-grid.ys[:0:-1], grid.ys])
    s = grid.c + 1j * ys
    integrand = np.exp(s * w) * (psi(s) - plateau) / s
    weights = trapezoid_weights(2 * grid.m)
    return grid.spacing * (integrand @ weights) / (2.0 * math.pi)


# --- grid construction -------------------------------------------------------

def test_build_grid_shape():
    # t_max / 0.25 = 4.12 intervals, rounded up to 5, then to even
    grid = build_grid(1.0, 1.03, 1.0)
    assert grid.m == 6 and grid.n_points == 7
    assert grid.ys[0] == 0.0 and grid.ys[-1] == 1.03
    assert grid.spacing <= 0.25


def test_build_grid_step_is_the_aliasing_bound():
    # h = min(c/4, pi/w): c/4 up to w = 4 pi / c, including w = 0, and
    # pi/w beyond it; bromwich_details refuses a grid over the same bound
    for c in (0.5, 1.0, 2.0):
        turn = 4.0 * math.pi / c
        for w in (0.0, 1e-300, 0.5, turn):
            grid = build_grid(c, 100.0, w)
            assert grid.m == 400 / c and grid.spacing == c / 4.0
        for w in (1.01 * turn, 2.0 * turn, 8.0 * turn):
            grid = build_grid(c, 100.0, w)
            assert math.pi / w * 0.99 <= grid.spacing <= math.pi / w
            assert bromwich_details(exp_psi(grid), [w]).values
            with pytest.raises(GridTooCoarse):
                bromwich_details(exp_psi(grid), [w * 1.01])


def test_build_grid_budget():
    # 5 000 001 points at step 0.25 is over the 5 * 10^6-point cap, which
    # raises before anything is allocated; one interval less is not
    with pytest.raises(CapacityError):
        build_grid(1.0, 1.25e6, 1.0)
    assert build_grid(1.0, 1.25e6 - 0.5, 1.0).n_points == 5 * 10**6 - 1


def test_build_grid_shares_one_immutable_grid():
    grid = build_grid(1.0, 100.0, 2.0)
    assert build_grid(1, 100, 2.0) is grid
    assert isinstance(grid.c, float) and isinstance(grid.t_max, float)
    assert not grid.ys.flags.writeable and not grid.points.flags.writeable
    with pytest.raises(dataclasses.FrozenInstanceError):
        grid.m = 4
    # w enters only through the step, 0.25 for every w up to 4 pi
    assert build_grid(1.0, 100.0, 0.5) is grid
    others = [build_grid(2.0, 100.0, 2.0), build_grid(1.0, 50.0, 2.0),
              build_grid(1.0, 100.0, 20.0)]
    assert all(other is not grid for other in others)
    assert len({(g.c, g.t_max, g.m) for g in [grid, *others]}) == 4


# --- inversion oracle values --------------------------------------------------

def test_degenerate_at_zero():
    """psi = 1 is the transform of a unit mass at 0, so F(w) = 1 for w > 0."""
    grid = build_grid(1.0, 100.0, 1.0)
    ones = TransformValues(grid, np.ones(grid.n_points, dtype=complex))
    value = bromwich_details(ones, [1.0]).values[0]
    assert 0.99 <= value <= 1.01


def test_exponential_half_life():
    grid = build_grid(1.0, 200.0, math.log(2.0))
    value = bromwich_details(exp_psi(grid), [math.log(2.0)]).values[0]
    assert value == pytest.approx(0.5, abs=0.01)


def test_invert_known_examples():
    assert invert_cdf_known(Exponential(1.0), 1.0) == pytest.approx(
        1.0 - math.exp(-1.0), abs=0.01)
    assert invert_cdf_known(Exponential(20.0), 0.1609) == pytest.approx(
        1.0 - math.exp(-20.0 * 0.1609), abs=0.01)
    assert invert_cdf_known(Gamma(2.0, 1.0), 1e-3, t_max=400.0) <= 0.02


def test_invert_accepts_plain_callable():
    value = invert_cdf_known(lambda s: 1.0 / (1.0 + s), 1.0)
    assert value == pytest.approx(1.0 - math.exp(-1.0), abs=0.01)


# --- truncation behavior -------------------------------------------------------

def test_truncation_error_decays_once_over_t():
    """Fit the tail constant at T=100 and check it bounds T in {200,400,800}."""
    truth = 1.0 - math.exp(-1.0)
    kappa = 100.0 * abs(invert_cdf_known(Exponential(1.0), 1.0, t_max=100.0) - truth)
    for t_max in (200.0, 400.0, 800.0):
        err = abs(invert_cdf_known(Exponential(1.0), 1.0, t_max=t_max) - truth)
        assert err <= kappa / t_max


def test_halving_the_step_barely_moves_the_result():
    a = invert_cdf_known(Exponential(1.0), math.log(2.0), t_max=200.0)
    fine = ContourGrid(1.0, 200.0, 8000)  # step 0.025, a tenth of the default
    b = bromwich_details(exp_psi(fine), [math.log(2.0)]).values[0]
    assert abs(a - b) <= 1e-4


def test_plateau_subtraction_is_exact_on_a_pure_atom():
    atom = 0.5
    psi = lambda s: np.full_like(s, atom)
    raw = invert_cdf_known(psi, 0.05, t_max=100.0)
    split = invert_cdf_known(psi, 0.05, t_max=100.0, plateau=atom)
    # raw integrates the slowly decaying atom/s term and keeps a visible
    # truncation wiggle; split handles it in closed form
    assert abs(raw - atom) > 1e-3
    assert abs(split - atom) < 1e-12


def test_plateau_subtraction_shrinks_worst_case_error():
    """An atom at 0 makes the sharp truncation bias O(1/T) pointwise; pulling
    the plateau out analytically leaves a remainder that decays faster.  At a
    single w the raw error can get lucky through sign cancellation, so compare
    the worst case over a sweep."""
    atom = 0.5

    def psi(s):
        return atom + (1.0 - atom) * 20.0 / (20.0 + s)

    raw_errs = []
    split_errs = []
    for w in (0.02, 0.05, 0.1, 0.2, 0.5):
        truth = atom + (1.0 - atom) * (1.0 - math.exp(-20.0 * w))
        raw_errs.append(abs(invert_cdf_known(psi, w, t_max=50.0) - truth))
        split_errs.append(
            abs(invert_cdf_known(psi, w, t_max=50.0, plateau=atom) - truth))
    assert max(split_errs) < max(raw_errs) / 3.0
    assert max(split_errs) < 0.02


# --- trapezoid against Simpson -----------------------------------------------

def inverted(transform, t_max, w, plateau=0.0):
    """The library's inversion at w of a known transform, on the grid that
    ``build_grid`` sizes for w."""
    grid = build_grid(1.0, t_max, w)
    return bromwich_details(TransformValues(grid, transform(grid.points)), [w],
                            plateau).values[0], grid


@pytest.mark.parametrize("t_max", [100.0, 200.0, 400.0])
def test_trapezoid_equals_simpson_at_a_fifth_of_the_step(t_max):
    # Gamma(20, 0.05) decays so fast on the contour that the truncation
    # tail and the endpoint terms of either rule sit below rounding: what
    # is left of their difference is the trapezoid rule's aliasing,
    # e^{-8 pi} = 1.2e-11 at h = 1/4
    jobs = Gamma(20.0, 0.05)
    for w in (0.5, 1.0, 2.0, 5.0):
        got, grid = inverted(jobs.transform, t_max, w)
        fine = ContourGrid(1.0, t_max, 5 * grid.m)
        assert abs(got - simpson_inversion(jobs.transform, fine, w)) <= 1e-9


def former_step(w):
    """The composite Simpson step the inversion was tested at before the
    trapezoid rule: min(0.05, (pi/8) / max(w, 1))."""
    return min(0.05, math.pi / 8.0 / max(w, 1.0))


RHO = 0.9
EXACT_CASES = {
    "Exp(1)": (Exponential(1.0).transform, lambda w: 1.0 - math.exp(-w), 0.0,
               (0.5, math.log(2.0), 1.0, 2.0)),
    # the M/M/1 workload at load 0.9 with unit service rate, atom 1 - rho
    "M/M/1 rho 0.9": (lambda s: (1.0 - RHO) * (1.0 + s) / (1.0 - RHO + s),
                      lambda w: 1.0 - RHO * math.exp(-(1.0 - RHO) * w),
                      1.0 - RHO, (1.0, 5.0, 10.0)),
    "Deterministic(1)": (Deterministic(1.0).transform,
                         lambda w: float(Deterministic(1.0).cdf(w)), 0.0,
                         (0.5, 0.9, 1.1, 2.0)),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
@pytest.mark.parametrize("t_max", [100.0, 200.0, 400.0])
def test_trapezoid_error_is_no_larger_than_simpson(case, t_max):
    # the error on exact transforms is truncation: the coarser trapezoid
    # grid may not add to it (measured: at most 1.000 times Simpson's)
    transform, cdf, plateau, ws = EXACT_CASES[case]
    for w in ws:
        got, _ = inverted(transform, t_max, w, plateau)
        m = math.ceil(t_max / former_step(w))
        former = ContourGrid(1.0, t_max, m + m % 2)
        simpson = simpson_inversion(transform, former, w, plateau)
        assert abs(got - cdf(w)) <= 1.01 * abs(simpson - cdf(w))


# --- half grid against the full contour --------------------------------------

def test_half_grid_equals_full_grid_trapezoid():
    # the full-contour trapezoid sum of a conjugate-symmetric psi is real
    # and equals the half-grid value, with and without a plateau
    grid = build_grid(1.0, 50.0, 1.0)
    psi = lambda s: 1.0 / (1.0 + s)
    for plateau in (0.0, 0.3):
        full = full_contour_trapezoid(psi, grid, 1.0, plateau)
        half = bromwich_details(TransformValues(grid, psi(grid.points)), [1.0],
                                plateau=plateau).values[0]
        assert abs(full.imag) <= 1e-15
        assert abs(half - (plateau + full.real)) <= 1e-12


def test_value_is_the_upper_half_of_the_full_integrand():
    # the value is the half-grid trapezoid sum of the real part of the
    # integrand, up to the rounding of the factored phases
    grid = build_grid(1.0, 50.0, 1.0)
    for psi, plateau in ((exp_psi(grid), 0.0), (noisy_psi(grid, 21), 0.3)):
        want, magnitude = direct_half_trapezoid(psi, 1.0, plateau)
        got = bromwich_details(psi, [1.0], plateau=plateau).values[0]
        assert abs(got - want) <= rounding_bound(grid, 1.0, magnitude)


# --- one pass over a batch of w ------------------------------------------------

BATCH_WS = (0.05, 1.0, 6.86, 12.0)


@pytest.mark.parametrize("t_max", [10.0, 400.0, 2000.0])
@pytest.mark.parametrize("plateau", [0.0, 0.3])
def test_batch_matches_the_direct_sum(t_max, plateau):
    grid = build_grid(1.0, t_max, max(BATCH_WS))
    psi = noisy_psi(grid, 7)
    got = bromwich_details(psi, BATCH_WS, plateau=plateau).values
    assert len(got) == len(BATCH_WS)
    for w, value in zip(BATCH_WS, got):
        want, magnitude = direct_half_trapezoid(psi, w, plateau)
        assert abs(value - want) <= rounding_bound(grid, w, magnitude)


def test_batch_values_follow_the_order_of_ws():
    grid = build_grid(1.0, 400.0, max(BATCH_WS))
    psi = noisy_psi(grid, 8)
    forward = bromwich_details(psi, BATCH_WS, plateau=0.3).values
    backward = bromwich_details(psi, BATCH_WS[::-1], plateau=0.3).values
    assert backward == forward[::-1]
    assert len(set(forward)) == len(BATCH_WS)


def test_value_at_w_does_not_depend_on_the_batch():
    grid = build_grid(1.0, 400.0, max(BATCH_WS))
    psi = noisy_psi(grid, 9)
    batch = bromwich_details(psi, BATCH_WS, plateau=0.3).values
    for w, value in zip(BATCH_WS, batch):
        assert bromwich_details(psi, [w], plateau=0.3).values[0] == value
        assert bromwich_details(psi, [w, 0.5], plateau=0.3).values[0] == value


@settings(max_examples=80, deadline=None)
@given(st.floats(5.0, 2000.0),
       st.lists(st.floats(0.01, 12.0), min_size=1, max_size=4),
       st.lists(st.integers(0, 3), min_size=1, max_size=8),
       st.sampled_from([0.0, 0.3]), st.integers(0, 2**32 - 1))
def test_batch_equals_one_w_at_a_time(t_max, distinct, picks, plateau, seed):
    # any order, repeats included: every value equals the per-w loop's
    ws = [distinct[i % len(distinct)] for i in picks]
    grid = build_grid(1.0, t_max, max(ws))
    psi = noisy_psi(grid, seed)
    assert (bromwich_details(psi, ws, plateau=plateau).values
            == bromwich_loop(psi, ws, plateau))


def test_raw_values_stay_near_unit_range():
    for model in (Exponential(1.0), Exponential(20.0), Gamma(2.0, 0.5)):
        for w in (0.05, 0.5, 1.0, 3.0):
            value = invert_cdf_known(model, w, t_max=200.0)
            assert -0.05 <= value <= 1.05


# --- error paths -------------------------------------------------------------

def test_rejects_nonpositive_w():
    grid = build_grid(1.0, 10.0, 1.0)
    with pytest.raises(ParameterError):
        bromwich_details(exp_psi(grid), [0.0])


@pytest.mark.parametrize("ws", [[1.0, 0.0], [0.5, -1.0, 1.0], [1.0, math.nan],
                                [math.inf, 1.0], [], 1.0])
def test_one_bad_w_rejects_the_batch(ws):
    grid = build_grid(1.0, 10.0, 1.0)
    with pytest.raises(ParameterError):
        bromwich_details(exp_psi(grid), ws)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.01, 5.0), st.floats(0.01, 400.0),
       st.lists(st.floats(0.0, 50.0, exclude_min=True), min_size=1, max_size=8))
def test_grid_for_the_largest_w_fits_every_w(c, t_max, ws):
    # one grid built for max(ws) serves every w in the list: the step bound
    # does not increase with w
    grid = build_grid(c, t_max, max(ws))
    ones = TransformValues(grid, np.ones(grid.n_points, dtype=complex))
    with np.errstate(all="ignore"):
        for w in ws:
            bromwich_details(ones, [w])


def test_grid_too_coarse_for_larger_w():
    grid = build_grid(1.0, 10.0, 1.0)  # step 0.25, fine for w <= pi/0.25
    with pytest.raises(GridTooCoarse):
        bromwich_details(exp_psi(grid), [50.0])
    # step 5 against the bound 0.25 at w = 1
    with pytest.raises(GridTooCoarse):
        bromwich_details(exp_psi(ContourGrid(1.0, 10.0, 2)), [1.0])
    # one w too large for the grid rejects the whole batch
    with pytest.raises(GridTooCoarse):
        bromwich_details(exp_psi(grid), [0.5, 50.0, 1.0])
