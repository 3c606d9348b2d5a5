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

``bromwich_details`` inverts every w of a batch in one pass over one grid of
K = m + 1 points. The trapezoid sum is a polynomial in e^{ihw} whose
coefficients every w shares, evaluated by baby steps and giant steps: about
2 sqrt(K) complex exponentials and one sqrt(K) x sqrt(K) matrix-vector
product per w, instead of K exponentials. It differs from the direct sum
only in the rounding of the phases, by at most 19 eps relative to the sum of
the moduli of its terms in the cases measured (see ``bromwich_details``).
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
    CapacityError when the grid would have more than 5 * 10^6 points.

    Equal (c, t_max, m) give the same immutable grid, so its ordinates and
    points are built once; the last 4 grids are kept. With its inversion
    plan (``_plan``: trapezoid weights over the points, and about 2 sqrt(K)
    phase steps) a kept grid holds 40 bytes per point: at most 4 grids of
    up to 5 * 10^6 points.
    """
    if not (t_max > 0 and math.isfinite(t_max)):
        raise ParameterError("t_max must be positive and finite")
    if not (w >= 0 and math.isfinite(w)):
        raise ParameterError("w must be nonnegative and finite")
    m = max(2, math.ceil(t_max / _step_for(c, w)))
    m += m % 2
    if m + 1 > _MAX_GRID_POINTS:
        raise CapacityError(
            f"inversion grid needs {m + 1} points, cap {_MAX_GRID_POINTS}")
    return _shared_grid(float(c), float(t_max), m)


# The grids build_grid hands out, shared with _plan.
_shared_grid = functools.lru_cache(maxsize=4)(ContourGrid)


@functools.lru_cache(maxsize=4)
def _plan(c: float, t_max: float,
          m: int) -> tuple[np.ndarray, int, int, np.ndarray]:
    """The trapezoid weights 1/2, 1, ..., 1, 1/2 over the points s of the
    grid ContourGrid(c, t_max, m); B = ceil(sqrt(K)) and Q = ceil(K / B) for
    its K = m + 1 points; and the phase steps of ``bromwich_details``, the
    baby steps 0 .. B-1 then the giant steps 0, B, .., (Q - 1) B. Cached per
    grid; the arrays are read-only."""
    weights = np.ones(m + 1)
    weights[[0, -1]] = 0.5
    over_points = weights / _shared_grid(c, t_max, m).points
    b = math.isqrt(m) + 1
    q = -(-(m + 1) // b)
    steps = np.concatenate([np.arange(b), np.arange(0, q * b, b)])
    over_points.flags.writeable = False
    steps.flags.writeable = False
    return over_points, b, q, steps


def bromwich_details(psi: TransformValues, ws: Sequence[float],
                     plateau: float = 0.0) -> InversionResult:
    """Truncated contour inversion at every w of ``ws`` in one pass.

    psi carries the transform values on a half grid over [0, T] with
    K = m + 1 points y_k = k h; the value at each w is

        plateau + (1/pi) * trapezoid over [0, T] of Re[e^{sw} (psi(s) - plateau) / s]

    and the values come back in the order of ``ws``. The trapezoid weights
    over the points, omega_k / s_k, are cached per grid, the coefficients
    a_k = omega_k (psi_k - plateau) / s_k are formed once per call, and the
    sum is e^{cw} * sum_k a_k z^k with z = e^{ihw}, a polynomial in z on the
    unit circle. It is evaluated by baby steps and giant steps
    (Paterson and Stockmeyer): with B = ceil(sqrt(K)), the a_k, zero-padded
    to Q * B, form a (Q, B) table A, and

        sum_k a_k z^k = sum_q z^{qB} (A z_B)_q,   z_B = (z^0, ..., z^{B-1}),

    so each w costs about 2 sqrt(K) complex exponentials and one Q x B
    matrix-vector product instead of K exponentials. The phase steps r and
    qB are cached per grid with the trapezoid weights. The products A z_B of
    every w are taken in one ``einsum`` and e^{cw} as one vector; the giant
    step, a dot product of Q terms, is taken one w at a time. The phases
    r h w and (qB) h w are rounded differently from the direct y_k w, so
    the result differs from the direct sum by up to eps * (sqrt(K) + T w) times
    (1/pi) * trapezoid of |e^{sw} (psi(s) - plateau) / s|, eps the double
    epsilon. Over 400 random noisy transforms with T in [5, 3000] and w in
    [0.01, 12] the deviation stayed below 0.02 of that bound, at most
    19 eps times the sum. Each w is evaluated by the same operations
    whatever else ``ws`` holds: the ``einsum`` sums each row of A z_B in the
    order one w alone would, so a value does not depend on its batch.

    ParameterError is raised for any w that is not positive and finite, and
    GridTooCoarse when the grid spacing exceeds min(c/4, pi/w) at the
    largest w and the grid's abscissa c, since aliasing would then spoil
    the result.
    """
    ws = np.asarray(ws, dtype=float)
    if ws.ndim != 1 or ws.size == 0:
        raise ParameterError("inversion points must be a nonempty sequence")
    listed = ws.tolist()
    if not all(w > 0 and math.isfinite(w) for w in listed):
        raise ParameterError("every inversion point w must be positive")
    grid = psi.grid
    h = grid.spacing
    w_max = max(listed)
    bound = _step_for(grid.c, w_max)
    if h > bound * _STEP_SLACK:
        raise GridTooCoarse(
            f"grid step {h:.6g} exceeds bound {bound:.6g} for w = {w_max:g}")
    k = grid.n_points
    over_points, b, q, steps = _plan(grid.c, grid.t_max, grid.m)
    coeffs = np.zeros(q * b, dtype=complex)
    np.subtract(psi.values, plateau, out=coeffs[:k])
    coeffs[:k] *= over_points
    powers = np.exp(1j * np.multiply.outer(h * ws, steps))
    # einsum rather than BLAS: a threaded product of this size is slower
    # than the product itself. The giant steps stay one product per w: in
    # one einsum for every w they rounded most values differently.
    baby = np.einsum("qr,wr->wq", coeffs.reshape(q, b), powers[:, :b])
    scales = np.exp(grid.c * ws)
    return InversionResult(values=tuple(
        float(plateau + h * scale * (row @ giant).real / math.pi)
        for scale, row, giant in zip(scales, baby, powers[:, b:])))

