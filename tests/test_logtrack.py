"""Continuous-logarithm tracking along the contour."""
import math
from functools import partial

import numpy as np
import pytest

from laptail.errors import DomainError, NearZeroTransform
from laptail.inversion import build_grid
from laptail.logtrack import _log_near_one, track_log
from laptail.transforms import (ContourGrid, SampleSet, empirical_transform_eval,
                                empirical_transform_grid)


def exp_jobs_transform(rate: float):
    return lambda s: rate / (rate + s)


def compound_evaluator(intensity: float, rate: float):
    jobs = exp_jobs_transform(rate)
    return lambda s: np.exp(intensity * (jobs(s) - 1.0))


# --- log increment ---------------------------------------------------------

def disk_points() -> np.ndarray:
    """Points across |z - 1| <= 1/2, on its boundary and at |z - 1| ~ 1e-12."""
    rng = np.random.default_rng(23)
    angles = rng.uniform(-math.pi, math.pi, (3, 4000))
    radii = [0.5 * np.sqrt(rng.random(4000)), np.full(4000, 0.5),
             1e-12 * rng.uniform(0.5, 2.0, 4000)]
    return np.concatenate([1.0 + r * np.exp(1j * a) for r, a in zip(radii, angles)])


def test_log_near_one_matches_complex_log():
    z = disk_points()
    assert np.max(np.abs(z - 1.0)) <= 0.5 + 1e-15
    got = _log_near_one(z)
    assert np.max(np.abs(got - np.log(z))) <= 1e-15
    # the scalar path, used at bisection steps, gives the same values
    for k in range(0, z.size, 97):
        assert complex(_log_near_one(complex(z[k]))) == got[k]


def test_tracked_empirical_log_matches_complex_log_path():
    # the increments used to be np.log of each ratio; on a T = 400 grid no
    # step is bisected, so the path is log f(c) plus their running sum
    rng = np.random.default_rng(24)
    x = rng.exponential(0.05, 10_000)
    x[rng.random(x.size) < 0.5] = 0.0
    ss = SampleSet(x)
    grid = build_grid(1.0, 400.0, 1.0)
    assert grid.n_points == 8001
    vals = empirical_transform_grid(ss, grid).values
    ratios = vals[1:] / vals[:-1]
    assert np.all(np.abs(ratios - 1.0) <= 0.5)
    expected = np.log(vals[0].real) + np.concatenate([[0.0], np.cumsum(np.log(ratios))])
    path = track_log(partial(empirical_transform_eval, ss), grid, values=vals)
    assert np.max(np.abs(path.values - expected)) <= 1e-13


# --- tracked log -----------------------------------------------------------

def test_constant_transform_tracks_to_zero():
    grid = build_grid(1.0, 10.0, 1.0)
    path = track_log(lambda s: np.ones_like(s), grid)
    assert np.all(path.values == 0.0)


def test_compound_transform_identity():
    """Tracked log of exp(a(B-1)) must equal a(B-1), not its wrapped version."""
    grid = build_grid(1.0, 10.0, 1.0)
    path = track_log(compound_evaluator(2.0, 1.0), grid)
    expected = 2.0 * (exp_jobs_transform(1.0)(grid.points) - 1.0)
    assert np.max(np.abs(path.values - expected)) <= 1e-8


def test_unit_point_mass_winds():
    grid = build_grid(0.5, 20.0, 1.0)
    path = track_log(lambda s: np.exp(-s), grid)
    assert np.max(np.abs(path.values - (-grid.points))) <= 1e-8
    assert path.values[-1].imag == pytest.approx(-20.0, abs=1e-9)
    # a principal log would have reported a phase inside (-pi, pi]
    assert path.values[-1].imag < -math.pi


def test_agrees_with_principal_log_when_no_winding():
    grid = build_grid(1.0, 5.0, 1.0)
    ev = compound_evaluator(0.8, 1.0)
    path = track_log(ev, grid)
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
    path = track_log(lambda s: np.exp(-8.0 * s), coarse)
    assert np.max(np.abs(path.values - (-8.0 * coarse.points))) <= 1e-8


def test_vanishing_transform_raises():
    grid = build_grid(1.0, 10.0, 1.0)

    def crossing(s):
        y = np.asarray(s).imag
        return np.asarray(1.0 - y / 5.0, dtype=complex)

    with pytest.raises(NearZeroTransform):
        track_log(crossing, grid)


def test_non_real_anchor_raises():
    grid = build_grid(1.0, 5.0, 1.0)
    with pytest.raises(DomainError):
        track_log(lambda s: np.full(np.shape(s), 1j), grid)
    with pytest.raises(DomainError):
        track_log(lambda s: np.full(np.shape(s), -1.0 + 0j), grid)
