"""Truncated contour inversion of a Laplace transform into a distribution.

The target quantity is F(w), recovered from psi(s) = E exp(-sY) through

    F(w) = lim (1/(2 pi)) integral over [-T, T] of e^{(c+iy)w} psi(c+iy) / (c+iy) dy

truncated at a finite T. The integrand of a real measure is conjugate
symmetric, so the integral is (1/pi) times the real part over [0, T], and
psi is sampled on the half grid y in [0, T] only. When psi has a known
limit `plateau` at |s| -> infinity (an atom of the measure at 0), the
plateau is inverted in closed form and only the difference is integrated,
which turns the O(1/T) truncation tail into O(1/T^2).

The integral is composite Simpson on a uniform grid with step at most
h = min(0.05, (pi/8) / max(w, 1)). The second term keeps the sampled phase
increment w h of e^{iyw} below pi/8 so the oscillation is resolved; the
first keeps slowly oscillating cases accurate in the non-oscillatory
factor. ``build_grid`` takes m = ceil(T / h) intervals, rounded up to even,
and refuses grids of more than 5 * 10^6 points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import CapacityError, GridTooCoarse, ParameterError
from .transforms import AnalyticModel, ContourGrid, TransformValues

# Step policy of the contour integral; see the module docstring.
_MAX_STEP = 0.05
_PHASE_BOUND = math.pi / 8

# Hard cap on grid size so a huge w or T cannot silently allocate gigabytes.
_MAX_POINTS = 5 * 10**6

# Relative slack when validating that a supplied grid respects the step
# bounds, so grids built by build_grid itself always pass.
_STEP_SLACK = 1.0 + 1e-12


def _step_for(w: float) -> float:
    """Largest contour step that resolves the inversion at w."""
    return min(_MAX_STEP, _PHASE_BOUND / max(w, 1.0))


@dataclass(frozen=True)
class InversionResult:
    """Value of the truncated inversion."""

    value: float

    @property
    def imag_warning(self) -> bool:
        """Always False: a half-grid transform has no symmetry defect.

        Kept read-only only until the benchmark stops reading it (ROADMAP
        item 1).
        """
        return False


def build_grid(c: float, t_max: float, w: float) -> ContourGrid:
    """Half grid on [0, t_max] sized for inverting at w.

    The step is at most h = min(0.05, (pi/8) / max(w, 1)): m = ceil(t_max / h)
    intervals, at least 2 and rounded up to even so composite Simpson
    applies, giving m + 1 points. CapacityError when the grid would have
    more than 5 * 10^6 points.
    """
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ParameterError("t_max must be positive and finite")
    if not (w >= 0 and math.isfinite(w)):
        raise ParameterError("w must be nonnegative and finite")
    m = max(2, math.ceil(t_max / _step_for(w)))
    m += m % 2
    if m + 1 > _MAX_POINTS:
        raise CapacityError(
            f"inversion grid needs {m + 1} points, cap {_MAX_POINTS}")
    return ContourGrid(c, t_max, m)


def _simpson_uniform(values: np.ndarray, h: float):
    """Composite Simpson on a uniform grid with an even interval count."""
    n = values.shape[-1] - 1
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return (h / 3.0) * (values @ w)


def bromwich_details(psi: TransformValues, w: float,
                     plateau: float = 0.0) -> InversionResult:
    """Truncated contour inversion.

    psi carries the transform values on a half grid over [0, T]; the value
    returned is

        plateau + (1/pi) * Simpson over [0, T] of Re[e^{sw} (psi(s) - plateau) / s]

    GridTooCoarse is raised when the grid spacing exceeds the step bound
    for this w, since the result would be quadrature noise.
    """
    if not (w > 0 and math.isfinite(w)):
        raise ParameterError("inversion point w must be positive")
    grid = psi.grid
    h = grid.spacing
    bound = _step_for(w)
    if h > bound * _STEP_SLACK:
        raise GridTooCoarse(
            f"grid step {h:.6g} exceeds bound {bound:.6g} for w = {w:g}")
    s = grid.points
    integrand = (np.exp(s * w) * (psi.values - plateau) / s).real
    value = plateau + _simpson_uniform(integrand, h) / math.pi
    return InversionResult(value=float(value))


def invert_cdf_known(transform: AnalyticModel | Callable, w: float,
                     c: float = 1.0, t_max: float = 200.0,
                     plateau: float = 0.0) -> float:
    """Invert a known transform at w, for oracle checks and sanity runs.

    ``transform`` is either an analytic model or a callable s -> psi(s)
    accepting complex arrays.
    """
    grid = build_grid(c, t_max, w)
    evaluate = transform if callable(transform) else transform.transform
    values = TransformValues(grid, evaluate(grid.points))
    return bromwich_details(values, w, plateau).value
