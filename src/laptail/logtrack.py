"""Continuous logarithm of a transform along the Bromwich contour.

The principal logarithm jumps when a curve crosses the negative real axis;
the estimators here need the branch that is continuous along the contour and
real at y = 0. We build it by summing the principal logs of consecutive
ratios. Within |ratio - 1| <= 1/2 the principal log is the continuous
increment, since that disk keeps the ratio in the right half-plane, away
from the cut. Each increment is computed in real arithmetic: with
u = ratio - 1, its real part is log1p(u.re (2 + u.re) + u.im^2) / 2 and its
imaginary part arctan2(ratio.im, ratio.re), several times faster than the
complex log on these near-one ratios and as accurate.

A grid step whose ratio leaves the disk is wide. When the caller can give
the transform on any grid, as the empirical transform's grid evaluation
can, a grid with a wide step is tracked instead on the grid 8 times finer
over the same [0, T], and every 8th value of that log is kept: at the
quadrature's coarse step most wide steps of a transform near zero are
narrow again on that grid, which costs about as much as the coarse one.
The steps still wide there, and those of a grid tracked without such a
caller, are bisected until every piece is in the disk. The bisection runs
in passes, one per level: each pass halves every pending piece of every
wide step and evaluates all the midpoints in one call of the evaluator, so
an evaluator that works on arrays, such as the empirical transform's cell
path, pays its fixed cost once per level rather than once per midpoint.
The cell path also keeps its moment sums for the last sample, so of one
log's passes only the first forms them. Most grids have no wide step: they
are neither refined nor bisected.

The log is tracked on the half grid y in [0, T] only, upward from the
anchor y = 0: the transforms are of real measures, so on y < 0 the branch
is the conjugate.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, NearZeroTransform, ParameterError
from .transforms import _MAX_GRID_POINTS, ContourGrid, TransformValues

# A ratio step is accepted only when |ratio - 1| <= _RATIO_RADIUS; larger
# steps are bisected. 1/2 keeps every accepted ratio in Re(z) >= 1/2, far
# from the branch cut, while tolerating genuinely fast-varying transforms.
_RATIO_RADIUS = 0.5

# A grid with a wide step is tracked on the grid this many times finer, if
# that grid has at most _MAX_GRID_POINTS points, the quadrature grid's cap;
# past it the wide steps are only bisected.
_REFINE_FACTOR = 8

# Most bisection passes, each halving every pending piece once, before log
# tracking gives up.
_REFINE_LIMIT = 40

# Relative tolerance for the imaginary part of the transform at the real
# anchor point s = c, where the value must be real and positive.
_ANCHOR_IMAG_TOL = 1e-9


def _log_near_one(z):
    """Principal log of the complex array z for |z - 1| <= 1/2.

    With u = z - 1, log|z| = log1p(u.re (2 + u.re) + u.im^2) / 2 and
    arg z = arctan2(z.im, z.re); on this disk it agrees with ``np.log``
    within 1e-15 absolute.
    """
    re, im = np.real(z), np.imag(z)
    u = re - 1.0
    out = np.empty(np.shape(z), dtype=complex)
    out.real = 0.5 * np.log1p(u * (2.0 + u) + im * im)
    out.imag = np.arctan2(im, re)
    return out


def _bisected_log_ratios(evaluator: Callable, s_from: np.ndarray,
                         f_from: np.ndarray, s_to: np.ndarray,
                         f_to: np.ndarray) -> np.ndarray:
    """Continuous log of f_to / f_from for each wide step from s_from to
    s_to, by bisection in passes.

    Each pass halves every pending piece at its midpoint, evaluates all the
    midpoints in one ``evaluator`` call, and accepts each half whose ratio
    lies in the disk |z - 1| <= 1/2, adding its log to its step's sum; the
    other halves are pending in the next pass. A zero value at a midpoint
    raises NearZeroTransform naming it, and so does a piece still pending
    after _REFINE_LIMIT passes, naming its ends.
    """
    total = np.zeros(s_from.size, dtype=complex)
    step = np.arange(s_from.size)
    for _ in range(_REFINE_LIMIT):
        s_mid = 0.5 * (s_from + s_to)
        f_mid = np.asarray(evaluator(s_mid), dtype=complex)
        if np.any(f_mid == 0.0):
            k = int(np.flatnonzero(f_mid == 0.0)[0])
            raise NearZeroTransform(f"transform vanishes near s = {s_mid[k]}")
        # the left halves, then the right halves
        s_from = np.concatenate([s_from, s_mid])
        s_to = np.concatenate([s_mid, s_to])
        f_from = np.concatenate([f_from, f_mid])
        f_to = np.concatenate([f_mid, f_to])
        step = np.concatenate([step, step])
        ratios = f_to / f_from
        near = np.abs(ratios - 1.0) <= _RATIO_RADIUS
        # halves of one step can be accepted in the same pass, so their
        # logs are summed by bincount, not by fancy-index assignment
        logs = _log_near_one(ratios[near])
        done = step[near]
        total.real += np.bincount(done, logs.real, total.size)
        total.imag += np.bincount(done, logs.imag, total.size)
        if near.all():
            return total
        wide = ~near
        s_from, f_from = s_from[wide], f_from[wide]
        s_to, f_to, step = s_to[wide], f_to[wide], step[wide]
    raise NearZeroTransform(
        f"log tracking failed to converge between {s_from[0]} and {s_to[0]}; "
        "the transform is too close to zero on the contour")


def _ratios(pts: np.ndarray,
            vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ratios of consecutive values and whether each lies in the disk
    |z - 1| <= 1/2; NearZeroTransform when a value is zero."""
    if not vals.all():
        k = int(np.flatnonzero(vals == 0.0)[0])
        raise NearZeroTransform(f"transform vanishes at s = {pts[k]}")
    ratios = vals[1:] / vals[:-1]
    return ratios, np.abs(ratios - 1.0) <= _RATIO_RADIUS


def track_log(evaluator: Callable, grid: ContourGrid, values: np.ndarray,
              on_grid: Callable | None = None) -> TransformValues:
    """Track the continuous logarithm of ``evaluator`` on the half grid.

    ``values`` holds the evaluator's values at the m + 1 grid points, in
    their order; ParameterError when its shape is not the grid's. Starting
    from the real anchor s = c (index 0) with log f(c) = ln f(c), the log
    is continued up the points y in [0, t_max]: each increment is the
    principal log of the ratio z of consecutive values, taken in real
    arithmetic in one vectorized pass. That pass decides which steps are
    wide, their ratio outside the disk |z - 1| <= 1/2. Grids without one
    take the increments of every ratio as they are.

    ``on_grid``, if given, maps a ContourGrid to the same transform's values
    at its points. A grid with a wide step is then tracked instead on
    ContourGrid(c, t_max, 8 m), from ``on_grid`` of it, and every 8th value
    of that log is returned; not if that grid would have more than
    5 * 10^6 points, the cap of ``build_grid``. The steps still wide, on
    whichever grid is tracked, are bisected until every piece is in the
    disk, in at most _REFINE_LIMIT passes; each pass calls ``evaluator`` once, with the
    array of all its midpoints, so ``evaluator`` must accept a 1-d complex
    array. A zero value on a tracked grid or at a midpoint, and a step that
    never settles, raise NearZeroTransform. The log is the running sum of
    the increments from ln f(c), formed in the output array itself.

    The anchor value f(c) must be real positive (relative imaginary part
    within 1e-9), else DomainError: transforms of nonnegative measures are
    real on the real axis, so anything else means the evaluator is not one.
    """
    pts = grid.points
    vals = np.asarray(values, dtype=complex)
    if vals.shape != pts.shape:
        raise ParameterError("values must match the grid")
    f_c = complex(vals[0])
    if not (f_c.real > 0.0) or abs(f_c.imag) > _ANCHOR_IMAG_TOL * abs(f_c):
        raise DomainError(
            f"transform at s = {grid.c} must be real and positive, got {f_c}")
    ratios, near = _ratios(pts, vals)
    keep = 1
    if (on_grid is not None and not near.all()
            and _REFINE_FACTOR * grid.m < _MAX_GRID_POINTS):
        keep = _REFINE_FACTOR
        fine = ContourGrid(grid.c, grid.t_max, keep * grid.m)
        pts = fine.points
        vals = np.asarray(on_grid(fine), dtype=complex)
        ratios, near = _ratios(pts, vals)
    # increments for the easy steps in one vectorized pass, then replace the
    # few wide ones by their bisected sums
    wide = np.flatnonzero(~near)
    incs = _log_near_one(np.where(near, ratios, 1.0) if wide.size else ratios)
    if wide.size:
        incs[wide] = _bisected_log_ratios(evaluator, pts[wide], vals[wide],
                                          pts[wide + 1], vals[wide + 1])
    out = np.empty(vals.size, dtype=complex)
    out[0] = np.log(f_c.real)
    np.cumsum(incs, out=out[1:])
    out[1:] += out[0]
    return TransformValues._adopt(grid, out[::keep])
