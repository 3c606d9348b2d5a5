"""Truncated contour inversion of a Laplace transform into a distribution.

The target quantity is F(w), recovered from psi(s) = E exp(-sY) through

    F(w) = lim (1/(2 pi)) integral over [-T, T] of e^{(c+iy)w} psi(c+iy) / (c+iy) dy

truncated at a finite T. The integrand of a real measure is conjugate
symmetric, so the integral is evaluated as (1/pi) times the real part over
[0, T]. When psi has a known limit `plateau` at |s| -> infinity (an atom of
the measure at 0), the plateau is inverted in closed form and only the
difference is integrated, which turns the O(1/T) truncation tail into
O(1/T^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, GridTooCoarse, ParameterError
from .transforms import AnalyticModel, ContourGrid, TransformValues, analytic_transform_eval

# Hard cap on grid size so a huge w or T cannot silently allocate gigabytes.
_DEFAULT_POINT_BUDGET = 10**7

# Relative slack when validating that a supplied grid respects the step
# bounds, so grids built by build_grid itself always pass.
_STEP_SLACK = 1.0 + 1e-12


@dataclass(frozen=True)
class QuadratureSpec:
    """Quadrature rule and step-size policy for the contour integral.

    The step is min(max_step, phase_bound / max(w, 1)): the second term
    keeps the sampled phase increment w*h of e^{iyw} below phase_bound so
    oscillations are resolved, the first keeps slowly oscillating cases
    accurate in the non-oscillatory factor.
    """

    rule: str = "composite_simpson"
    max_step: float = 0.05
    phase_bound: float = math.pi / 8

    def __post_init__(self):
        if self.rule != "composite_simpson":
            raise ParameterError(f"unknown quadrature rule {self.rule!r}")
        if not self.max_step > 0:
            raise ParameterError("max_step must be positive")
        if not 0 < self.phase_bound <= math.pi / 4:
            raise ParameterError("phase_bound must be in (0, pi/4]")

    def step_for(self, w: float) -> float:
        return min(self.max_step, self.phase_bound / max(w, 1.0))


DEFAULT_QUAD = QuadratureSpec()


@dataclass(frozen=True)
class InversionResult:
    """Value of the truncated inversion plus numerical diagnostics.

    imag_residual is |Im| of the Simpson sum over the whole contour,
    (1/(2 pi)) times the integral over [-T, T] of e^{sw} (psi(s) - plateau)
    / s, computed from the upper half as the Simpson sum of
    Im(conj(e^{sw}/s) d) with the conjugate-symmetry defect
    d(y) = psi(c - iy) - conj(psi(c + iy)). It measures how far the
    transform is from that of a real measure, and is exactly 0 for a
    mirrored grid such as ``empirical_transform_grid`` returns; a large
    value (imag_warning) signals a transform that is not one of a real
    measure.
    """

    value: float
    imag_residual: float
    imag_warning: bool


def build_grid(c: float, t_max: float, w: float,
               quad: QuadratureSpec = DEFAULT_QUAD,
               point_budget: int = _DEFAULT_POINT_BUDGET) -> ContourGrid:
    """Symmetric uniform grid on [-t_max, t_max] sized for inverting at w.

    The number of intervals per half is even so composite Simpson applies
    on the half-grid; CapacityError when the grid would exceed the budget.
    """
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ParameterError("t_max must be positive and finite")
    if not (w >= 0 and math.isfinite(w)):
        raise ParameterError("w must be nonnegative and finite")
    h0 = quad.step_for(w)
    m = max(2, math.ceil(t_max / h0))
    m += m % 2
    if 2 * m + 1 > point_budget:
        raise CapacityError(
            f"inversion grid needs {2 * m + 1} points, budget {point_budget}")
    half = np.linspace(0.0, t_max, m + 1)
    ys = np.concatenate([-half[:0:-1], half])
    return ContourGrid(c=c, t_max=t_max, ys=ys)


def _simpson_uniform(values: np.ndarray, h: float):
    """Composite Simpson on a uniform grid with an even interval count."""
    n = values.shape[-1] - 1
    if n < 2 or n % 2:
        raise ParameterError("composite Simpson needs an even interval count")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * (values @ w)


def bromwich_details(psi: TransformValues, w: float,
                     quad: QuadratureSpec = DEFAULT_QUAD,
                     plateau: float = 0.0) -> InversionResult:
    """Truncated contour inversion with diagnostics.

    psi carries the transform values on a symmetric uniform grid; the value
    returned is

        plateau + (1/pi) * Simpson over [0, T] of Re[e^{sw} (psi(s) - plateau) / s]

    GridTooCoarse is raised when the grid spacing exceeds the step bound
    for this w, since the result would be quadrature noise.
    """
    if not (w > 0 and math.isfinite(w)):
        raise ParameterError("inversion point w must be positive")
    grid = psi.grid
    h = grid.spacing
    if (grid.n_points - 1) % 2:
        raise ParameterError("grid must have an even interval count")
    bound = quad.step_for(w)
    if h > bound * _STEP_SLACK:
        raise GridTooCoarse(
            f"grid step {h:.6g} exceeds bound {bound:.6g} for w = {w:g}")
    mid = grid.center_index
    s = grid.points[mid:]
    growth = np.exp(s * w)
    half_vals = (growth * (psi.values[mid:] - plateau) / s).real
    value = plateau + _simpson_uniform(half_vals, h) / math.pi
    # The full-grid Simpson weights at y_k and -y_k both equal the half-grid
    # weight at y_k (the centre weight 2 is 1 + 1), so the imaginary part of
    # the full sum is the half-grid sum of Im(f(y) + f(-y)) for the
    # integrand f, which is Im(conj(e^{sw}/s) d) with the symmetry defect d.
    defect = psi.values[mid::-1] - np.conj(psi.values[mid:])
    if np.any(defect):
        full_imag = _simpson_uniform((np.conj(growth / s) * defect).imag, h)
        imag_residual = float(abs(full_imag)) / (2.0 * math.pi)
    else:
        imag_residual = 0.0
    scale = max(1.0, abs(value))
    return InversionResult(value=float(value), imag_residual=imag_residual,
                           imag_warning=imag_residual > 1e-6 * scale)


def bromwich_truncated(psi: TransformValues, w: float,
                       quad: QuadratureSpec = DEFAULT_QUAD,
                       plateau: float = 0.0) -> float:
    """Value-only variant of bromwich_details."""
    return bromwich_details(psi, w, quad, plateau).value


def invert_cdf_known(transform: AnalyticModel | Callable, w: float,
                     c: float = 1.0, t_max: float = 200.0,
                     quad: QuadratureSpec = DEFAULT_QUAD,
                     plateau: float = 0.0) -> float:
    """Invert a known transform at w, for oracle checks and sanity runs.

    ``transform`` is either an analytic model or a callable s -> psi(s)
    accepting complex arrays.
    """
    grid = build_grid(c, t_max, w, quad)
    if callable(transform):
        values = np.asarray(transform(grid.points), dtype=complex)
    else:
        values = analytic_transform_eval(transform, grid.points)
    return bromwich_truncated(TransformValues(grid, values), w, quad, plateau)
