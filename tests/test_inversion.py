"""Contour inversion: grids, quadrature, truncation behavior."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laptail.errors import CapacityError, GridTooCoarse, ParameterError
from laptail.inversion import (QuadratureSpec, bromwich_details, build_grid,
                               invert_cdf_known)
from laptail.transforms import (Exponential, Gamma, SampleSet, TransformValues,
                                empirical_transform_grid)


def exp_psi(grid):
    return TransformValues(grid, 1.0 / (1.0 + grid.points))


def full_grid_simpson(psi, w, plateau=0.0):
    """Composite Simpson over the whole symmetric contour, divided by 2 pi."""
    grid = psi.grid
    integrand = np.exp(grid.points * w) * (psi.values - plateau) / grid.points
    h = grid.spacing
    n = grid.n_points - 1
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return (h / 3.0) * (integrand @ weights) / (2.0 * math.pi)


# --- grid construction -------------------------------------------------------

def test_build_grid_shape():
    grid = build_grid(1.0, 1.0, 1.0, QuadratureSpec(max_step=0.5))
    assert grid.ys[0] == -1.0 and grid.ys[-1] == 1.0
    assert grid.n_points % 2 == 1
    assert grid.ys[grid.center_index] == 0.0
    assert grid.spacing <= math.pi / 8


def test_build_grid_phase_bound_scales_with_w():
    grid = build_grid(1.0, 100.0, 10.0)
    assert grid.spacing <= math.pi / 80 + 1e-15


def test_build_grid_symmetry_is_exact():
    grid = build_grid(2.0, 37.0, 3.3)
    assert np.array_equal(grid.ys, -grid.ys[::-1])


def test_build_grid_budget():
    with pytest.raises(CapacityError):
        build_grid(1.0, 1e7, 1.0, point_budget=10**5)


def test_quadrature_spec_validation():
    with pytest.raises(ParameterError):
        QuadratureSpec(max_step=0.0)
    with pytest.raises(ParameterError):
        QuadratureSpec(phase_bound=math.pi)


# --- inversion oracle values --------------------------------------------------

def test_degenerate_at_zero():
    """psi = 1 is the transform of a unit mass at 0, so F(w) = 1 for w > 0."""
    grid = build_grid(1.0, 100.0, 1.0)
    ones = TransformValues(grid, np.ones(grid.n_points, dtype=complex))
    value = bromwich_details(ones, 1.0).value
    assert 0.99 <= value <= 1.01


def test_exponential_half_life():
    grid = build_grid(1.0, 200.0, math.log(2.0))
    value = bromwich_details(exp_psi(grid), math.log(2.0)).value
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
    fine = QuadratureSpec(max_step=0.025, phase_bound=math.pi / 16)
    a = invert_cdf_known(Exponential(1.0), math.log(2.0), t_max=200.0)
    b = invert_cdf_known(Exponential(1.0), math.log(2.0), t_max=200.0, quad=fine)
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


# --- symmetry and diagnostics ---------------------------------------------------

def test_half_grid_equals_full_grid_simpson():
    grid = build_grid(1.0, 50.0, 1.0)
    psi = exp_psi(grid)
    full = full_grid_simpson(psi, 1.0)
    half = bromwich_details(psi, 1.0).value
    assert abs(half - full.real) <= 1e-12


def test_value_is_the_upper_half_of_the_full_integrand():
    # the value only ever needed the upper half of the integrand built on
    # the whole contour; computing just that half must not move a bit
    grid = build_grid(1.0, 50.0, 1.0)
    mid = grid.center_index
    rng = np.random.default_rng(21)
    noise = 1e-3 * (rng.standard_normal(grid.n_points)
                    + 1j * rng.standard_normal(grid.n_points))
    for psi, plateau in ((exp_psi(grid), 0.0),
                         (TransformValues(grid, exp_psi(grid).values + noise), 0.3)):
        full = np.exp(grid.points * 1.0) * (psi.values - plateau) / grid.points
        weights = np.ones(mid + 1)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        want = plateau + (grid.spacing / 3.0) * (full[mid:].real @ weights) / math.pi
        assert bromwich_details(psi, 1.0, plateau=plateau).value == want


def test_imag_residual_is_zero_on_a_mirrored_grid():
    grid = build_grid(1.0, 50.0, 1.0)
    rng = np.random.default_rng(22)
    psi = empirical_transform_grid(SampleSet(rng.exponential(0.5, 300)), grid)
    for plateau in (0.0, 0.25):
        assert bromwich_details(psi, 1.0, plateau=plateau).imag_residual == 0.0


def test_imag_residual_is_the_full_contour_imaginary_part():
    grid = build_grid(1.0, 20.0, 1.0)
    skew = TransformValues(grid, np.where(grid.ys >= 0, 1.0, 0.2).astype(complex))
    rng = np.random.default_rng(23)
    noise = 1e-3 * (rng.standard_normal(grid.n_points)
                    + 1j * rng.standard_normal(grid.n_points))
    noisy = TransformValues(grid, exp_psi(grid).values + noise)
    for psi, plateau in ((skew, 0.0), (noisy, 0.0), (noisy, 0.3)):
        want = abs(full_grid_simpson(psi, 1.0, plateau).imag)
        got = bromwich_details(psi, 1.0, plateau=plateau).imag_residual
        assert abs(got - want) <= 1e-12 * want


def test_imag_residual_flags_asymmetric_input():
    grid = build_grid(1.0, 20.0, 1.0)
    skew = TransformValues(grid, np.where(grid.ys >= 0, 1.0, 0.2).astype(complex))
    details = bromwich_details(skew, 1.0)
    assert details.imag_warning
    clean = bromwich_details(exp_psi(grid), 1.0)
    assert not clean.imag_warning
    assert clean.imag_residual <= 1e-12


def test_raw_values_stay_near_unit_range():
    for model in (Exponential(1.0), Exponential(20.0), Gamma(2.0, 0.5)):
        for w in (0.05, 0.5, 1.0, 3.0):
            value = invert_cdf_known(model, w, t_max=200.0)
            assert -0.05 <= value <= 1.05


# --- error paths -------------------------------------------------------------

def test_rejects_nonpositive_w():
    grid = build_grid(1.0, 10.0, 1.0)
    with pytest.raises(ParameterError):
        bromwich_details(exp_psi(grid), 0.0)


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
            bromwich_details(ones, w)


def test_grid_too_coarse_for_larger_w():
    grid = build_grid(1.0, 10.0, 1.0)  # step 0.05, fine for w <= pi/(8*0.05)
    with pytest.raises(GridTooCoarse):
        bromwich_details(exp_psi(grid), 50.0)
