"""Reference computations that tests check the library against.

A plain helper module, not a test file: test modules import it by name.
"""
import math
from typing import Callable

import numpy as np

from laptail.estimator import CONTOUR_C
from laptail.inversion import bromwich_details, build_grid
from laptail.transforms import (ContourGrid, JobModel, SampleSet,
                               TransformValues)

# Largest number of terms e^{-s x} formed at once by ``direct_transform``.
_BLOCK_TERMS = 1 << 22

# Most points of a grid that ``reference_log`` tracks its log on; a log
# that no grid of at most this many points certifies is given up.
REFERENCE_POINTS = 1 << 17

# Rounding margin of ``reference_log``'s chord certificate: a value
# off by e moves the chord by at most e, and a direct sum of n <= 10^4
# terms of modulus at most 1 is off by far less than this.
_REFERENCE_MARGIN = 1e-12


def direct_transform(samples: SampleSet, s) -> np.ndarray:
    """Empirical transform (1/n) sum_j e^{-s x_j} at every point of ``s``,
    as a plain sum of one exponential per sample and point.

    It shares no code with the library's evaluators, so the grid transform
    and the point evaluator are both checked against it.
    """
    x = samples.values
    flat = np.asarray(s, dtype=complex).ravel()
    out = np.empty(flat.size, dtype=complex)
    rows = max(1, _BLOCK_TERMS // x.size)
    for start in range(0, flat.size, rows):
        out[start:start + rows] = np.exp(-flat[start:start + rows, None] * x).mean(axis=1)
    return out.reshape(np.shape(s))


def reference_log(samples: SampleSet, grid: ContourGrid) -> np.ndarray | None:
    """The continuous log of the empirical transform at the points of
    ``grid``, certified step by step, or None where no grid of at most
    REFERENCE_POINTS points certifies it.

    The transform is ``direct_transform`` at every point. Its log is
    tracked on ``grid`` refined 4, 16, ... times until every step of the
    refined grid is both in the disk |ratio - 1| <= 1/2 and certified: the
    chord from one value to the next stays farther from 0 than M2 h^2 / 8
    plus a margin, where M2 = (1/n) sum x^2 e^{-c x} bounds |f''| along
    the contour, so f misses 0 on the step and turns as the chord does.
    The argument is the sum of the principal Args of the refined grid's
    ratios, read at the points of ``grid``; the real part is log|f| there.
    """
    c = grid.c
    x = samples.values
    bound = float(np.mean((x * np.exp(-c * x)) * x))
    values = direct_transform(samples, grid.points)
    factor = 1
    while True:
        m = factor * grid.m
        if m + 1 > REFERENCE_POINTS:
            return None
        f = values if factor == 1 else direct_transform(
            samples, c + 1j * np.linspace(0.0, grid.t_max, m + 1))
        if not f.all():
            return None
        ratios = f[1:] / f[:-1]
        chord = f[1:] - f[:-1]
        with np.errstate(all="ignore"):
            at = np.where(chord == 0.0, 0.0,
                          np.clip(-(f[:-1] / chord).real, 0.0, 1.0))
        h = grid.t_max / m
        certified = (np.abs(ratios - 1.0) <= 0.5) & (
            np.abs(f[:-1] + at * chord)
            > bound * h * h / 8.0 + _REFERENCE_MARGIN)
        if certified.all():
            break
        factor *= 4
    arg = np.concatenate([[0.0], np.cumsum(np.angle(ratios))])[::factor]
    return np.log(np.abs(values)) + 1j * arg


def reference_estimate(samples: SampleSet, transform_map, w: float,
                       t_max: float,
                       values: np.ndarray | None = None) -> float | None:
    """The plug-in estimate of F(w), unclipped, computed slowly and
    independently of the library's estimate path, or None where
    ``reference_log`` gives up. The map's domain event must hold.

    It shares with the library only the quadrature grid (``build_grid``
    at c = CONTOUR_C) and the map's formula (``values`` and ``plateau``).
    The log is ``reference_log``'s, and the inversion is the trapezoid sum
    over the grid of Re[e^{sw} (psi(s) - plateau) / s], each term formed
    directly, times h / pi, plus the plateau.

    ``values``, if given, replace the direct sums at the grid's points: the
    log is then log|values| plus i times the certified argument and the
    principal Arg of values over the direct sums.
    """
    grid = build_grid(CONTOUR_C, t_max, w)
    log = reference_log(samples, grid)
    if log is None:
        return None
    if values is not None:
        log = np.log(np.abs(values)) + 1j * (
            log.imag + np.angle(values / direct_transform(samples, grid.points)))
    psi = transform_map.values(TransformValues(grid, log), samples)
    plateau = transform_map.plateau(samples)
    s = grid.points
    terms = (np.exp(s * w) * (psi - plateau) / s).real
    total = terms[1:-1].sum() + 0.5 * (terms[0] + terms[-1])
    return float(plateau + grid.spacing * total / math.pi)


def invert_cdf_known(transform: JobModel | Callable, w: float,
                     c: float = 1.0, t_max: float = 200.0,
                     plateau: float = 0.0) -> float:
    """Invert a known transform at w, for oracle checks and sanity runs.

    ``transform`` is either an analytic model or a callable s -> psi(s)
    accepting complex arrays.
    """
    grid = build_grid(c, t_max, w)
    evaluate = transform if callable(transform) else transform.transform
    values = TransformValues(grid, evaluate(grid.points))
    return bromwich_details(values, [w], plateau).values[0]


def gamma_input_cdf(shape: float, scale: float, delta: float, w: float,
                    t_max: float = 2000.0) -> float:
    """Workload CDF at w of the queue draining ``delta`` per slot whose slot
    totals are Gamma(shape, scale), the input of a gamma process observed
    in slots of width delta: totals with no atom at 0.

    The totals' transform (1 + scale s)^{-shape} is closed-form, and so is
    its log, -shape log(1 + scale s), continuous on Re s > 0. The map of
    ``Mg1Workload`` gives psi(s) = s (1 - rho) / (s + log / delta), rho =
    shape scale / delta, inverted at c = 1 with the plateau 1 - rho by
    ``invert_cdf_known``. At shape 5, scale 1 and delta 6.25 (rho = 0.8)
    T = 2 000 and T = 4 000 agree within 3.8e-7 at w = 2.5 and 1.7e-6 at
    w = 5.
    """
    rho = shape * scale / delta

    def psi(s):
        return s * (1.0 - rho) / (s - shape * np.log1p(scale * s) / delta)
    return invert_cdf_known(psi, w, t_max=t_max, plateau=1.0 - rho)


def simpson_inversion(transform: Callable, grid: ContourGrid, w: float,
                      plateau: float = 0.0) -> float:
    """The inversion at w by composite Simpson over the points of ``grid``,
    as a direct sum: plateau plus (1/pi) times Simpson over [0, T] of
    Re[e^{sw} (psi(s) - plateau) / s], psi = ``transform``. It shares no
    code with ``bromwich_details``, which sums by the trapezoid rule."""
    s = grid.points
    integrand = (np.exp(s * w) * (transform(s) - plateau) / s).real
    weights = np.ones(grid.n_points)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return plateau + (grid.spacing / 3.0) * (integrand @ weights) / math.pi


def bromwich_loop(psi: TransformValues, ws, plateau: float = 0.0) -> tuple:
    """Values of ``bromwich_details``, one w at a time, by the same
    arithmetic written out afresh for each: the weight row of w, the giant
    steps e^{i qBhw} times the baby steps e^{i rhw} h e^{cw} / pi, times the
    trapezoid weights over the points, and one dot product of the row with
    psi - plateau. The library keeps its rows between calls and must round
    every value the same."""
    grid = psi.grid
    h = grid.spacing
    k = grid.n_points
    b = math.isqrt(k - 1) + 1
    q = -(-k // b)
    weights = np.ones(k)
    weights[[0, -1]] = 0.5
    values = []
    for w in np.asarray(ws, dtype=float).tolist():
        baby = (np.exp(1j * (h * w * np.arange(b)))
                * (h * np.exp(grid.c * w) / math.pi))
        giant = np.exp(1j * (h * w * np.arange(0, q * b, b)))
        row = np.outer(giant, baby).ravel()[:k] * (weights / grid.points)
        values.append(float(plateau + np.dot(row, psi.values - plateau).real))
    return tuple(values)
