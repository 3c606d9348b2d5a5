"""Truncated contour inversion of a Laplace transform into a distribution.

The target quantity is F(w), recovered from psi(s) = E exp(-sY) through

    F(w) = lim (1/(2 pi)) integral over [-T, T] of e^{(c+iy)w} psi(c+iy) / (c+iy) dy

truncated at a finite T. The integrand of a real measure is conjugate
symmetric, so the integral is (1/pi) times the real part over [0, T], and
psi is sampled on the half grid y in [0, T] only. When psi has a known
limit `plateau` at |s| -> infinity (an atom of the measure at 0), the
plateau is inverted in closed form and only the difference is integrated,
which turns the O(1/T) truncation tail into O(1/T^2).

The integral is the trapezoid rule on a uniform grid with step at most
h = min(c/4, pi/w). The trapezoid sum with step h is exactly the integral
plus aliased images of F weighted by e^{-2 pi k c / h}, k >= 1 (Abate &
Whitt, Queueing Systems 10, 1992; Trefethen & Weideman, SIAM Rev. 56(3),
2014). F is at most 1, so h = c/4 bounds that discretisation error by
e^{-8 pi}, about 1e-11; pi/w keeps the first image, at w + 2 pi / h, beyond
w. ``build_grid`` takes m = ceil(T / h) intervals, rounded up to even, and
refuses grids of more than 5 * 10^6 points.

``bromwich_details`` inverts at each w by one dot product of psi with the
weight row of w on its grid of K = m + 1 points: the trapezoid weights over
the points times e^{i y_k w} h e^{cw} / pi. Its phases are giant steps
times baby steps, about 2 sqrt(K) exponentials, and the sum stays within
23 eps of the direct one, relative to the sum of the moduli of its terms,
in the cases measured. The last 4 grids with their plans and the rows of
the last 32 (grid, w) on small grids are kept; ``build_grid`` states their
memory.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CapacityError, GridTooCoarse, ParameterError
from .transforms import _MAX_GRID_POINTS, ContourGrid, TransformValues

# Relative slack when validating that a supplied grid respects the step
# bounds, so grids built by build_grid itself always pass.
_STEP_SLACK = 1.0 + 1e-12


def _step_for(c: float, w: float) -> float:
    """Largest contour step for inverting at w on Re s = c: min(c/4, pi/w),
    and c/4 at w = 0. See the module docstring."""
    h = c / 4.0
    return h if w * h <= math.pi else math.pi / w


@dataclass(frozen=True)
class InversionResult:
    """Values of the truncated inversion, one per w in the order given."""

    values: tuple[float, ...]

    @property
    def imag_warning(self) -> bool:
        """Always False: a half-grid transform has no symmetry defect.

        Kept read-only only until the benchmark stops reading it (ROADMAP
        item 1).
        """
        return False


def build_grid(c: float, t_max: float, w: float) -> ContourGrid:
    """Half grid on [0, t_max] sized for inverting at w.

    The step is at most h = min(c/4, pi/w), c/4 at w = 0: m = ceil(t_max / h)
    intervals, at least 2 and rounded up to even, giving m + 1 points.
    CapacityError when the grid would have more than 5 * 10^6 points,
    decided before the ceiling, which overflows for t_max / h near 1e308.

    Equal (c, t_max, m) give the same immutable grid, so its points are
    built once. The memory kept between calls, for K = m + 1 points:
    - the last 4 grids (``_shared_grid``), each with its points and its
      inversion plan, the trapezoid weights over the points: 32 bytes per
      point;
    - the rows of the _ROWS_KEPT = 32 (grid, w) used last on grids of at
      most _ROW_POINTS = 8 001 points (``_weight_row``). A row takes
      16 QB < 16 (K + B) bytes, B = ceil(sqrt K) and Q = ceil(K / B), and
      QB <= 8 010 there: at most 32 x 16 x 8 010 = 4 101 120 bytes, under
      4 MiB. Other rows are not kept;
    - the grid transform's NUFFT kernel (``transforms._kernel``) for each
      of the last 8 point counts, 8 bytes per point: up to 320 MB at the
      cap;
    - the last 2 grids that a grid transform was refined onto
      (``transforms._refined_grid``), each with its points and its
      deconvolution, 24 bytes per point of the finer grid. A grid
      transform refines only onto grids of at most 5 * 10^6 points
      (``transforms._GridTransform.refined``): up to 240 MB.
    A grid transform's result keeps its samples and the runs of its spread,
    264 bytes per run, only as long as the result lives.
    """
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ParameterError("t_max must be positive and finite")
    if not (w >= 0 and math.isfinite(w)):
        raise ParameterError("w must be nonnegative and finite")
    h = _step_for(c, w)
    # m + 1 <= cap exactly when t_max / h <= cap - 2, the cap being even
    if not t_max / h <= _MAX_GRID_POINTS - 2:
        raise CapacityError(f"inversion grid of step {h:.3g} over [0, {t_max:.3g}]"
                            f" needs more than {_MAX_GRID_POINTS:,} points")
    m = max(2, math.ceil(t_max / h))
    m += m % 2
    return _shared_grid(float(c), float(t_max), m)[0]


@functools.lru_cache(maxsize=4)
def _shared_grid(c: float, t_max: float, m: int
                 ) -> tuple[ContourGrid, np.ndarray, int, int]:
    """The grid build_grid hands out and its plan: the read-only trapezoid
    weights 1/2, 1, ..., 1, 1/2 over its K = m + 1 points s, and the counts
    B = ceil(sqrt(K)) of baby steps and Q = ceil(K / B) of giant steps."""
    grid = ContourGrid(c, t_max, m)
    weights = np.ones(m + 1)
    weights[[0, -1]] = 0.5
    over_points = weights / grid.points
    over_points.flags.writeable = False
    b = math.isqrt(m) + 1
    return grid, over_points, b, -(-(m + 1) // b)


# Rows kept, and the most points of a grid they are kept for (module doc)
_ROWS_KEPT = 32
_ROW_POINTS = 8_001


@functools.lru_cache(maxsize=_ROWS_KEPT)
def _weight_row(c: float, t_max: float, m: int, w: float) -> np.ndarray:
    """The read-only row omega_k / s_k e^{i y_k w} h e^{cw} / pi, written in
    place into one array of QB >= K entries: the giant steps e^{i qBhw}
    times the scaled baby steps e^{i rhw}, then times the weights (``_row``
    calls ``__wrapped__`` on grids of more than _ROW_POINTS points)."""
    grid, over_points, b, q = _shared_grid(c, t_max, m)
    h = grid.spacing
    baby = np.exp(1j * (h * w * np.arange(b))) * (h * np.exp(c * w) / math.pi)
    giant = np.exp(1j * (h * w * np.arange(0, q * b, b)))
    row = np.empty(q * b, dtype=complex)
    np.multiply(giant[:, None], baby, out=row.reshape(q, b))
    row = row[:grid.n_points]
    row *= over_points
    row.flags.writeable = False
    return row


def _row(grid: ContourGrid, w: float) -> np.ndarray:
    """The weight row of w, kept on grids of at most _ROW_POINTS points."""
    if grid.n_points > _ROW_POINTS:
        return _weight_row.__wrapped__(grid.c, grid.t_max, grid.m, w)
    return _weight_row(grid.c, grid.t_max, grid.m, w)


def bromwich_details(psi: TransformValues, ws: Sequence[float],
                     plateau: float = 0.0) -> InversionResult:
    """Truncated contour inversion at every w of ``ws`` on one grid.

    psi carries the transform values on a half grid over [0, T] with
    K = m + 1 points y_k = k h; the value at each w is

        plateau + (1/pi) * trapezoid over [0, T] of Re[e^{sw} (psi(s) - plateau) / s]

    and the values come back in the order of ``ws``. Each is plateau plus
    the real part of one ``np.dot`` of the weight row of w (``_row``, kept
    on grids of at most 8 001 points) with psi - plateau, so a value does
    not depend on its batch, nor on whether its row was kept. The row's
    phases, e^{i qBhw} e^{i rhw} for y_k = (qB + r) h and B = ceil(sqrt(K))
    (the baby and giant steps of Paterson and Stockmeyer), are rounded
    differently from the direct y_k w, so the result differs from the
    direct sum by up to eps * (sqrt(K) + T w) times
    (1/pi) * trapezoid of |e^{sw} (psi(s) - plateau) / s|, eps the double
    epsilon. Over 400 random noisy transforms with T in [5, 3000] and w in
    [0.01, 12] the deviation from the correctly rounded sum stayed below
    0.09 of that bound, at most 23 eps times the sum.

    ParameterError for any w not positive and finite; GridTooCoarse when the
    grid spacing exceeds min(c/4, pi/w) at the largest w and the grid's c,
    since aliasing would then spoil the result.
    """
    ws = np.asarray(ws, dtype=float)
    if ws.ndim != 1 or ws.size == 0:
        raise ParameterError("inversion points must be a nonempty sequence")
    listed = ws.tolist()
    if not all(w > 0 and math.isfinite(w) for w in listed):
        raise ParameterError("every inversion point w must be positive and finite")
    grid = psi.grid
    h = grid.spacing
    w_max = max(listed)
    bound = _step_for(grid.c, w_max)
    if h > bound * _STEP_SLACK:
        raise GridTooCoarse(
            f"grid step {h:.6g} exceeds bound {bound:.6g} for w = {w_max:g}")
    diff = psi.values - plateau
    return InversionResult(values=tuple(
        float(plateau + np.dot(_row(grid, w), diff).real) for w in listed))
