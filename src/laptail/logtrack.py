"""Continuous logarithm of a transform along the Bromwich contour.

The principal logarithm jumps when a curve crosses the negative real axis;
the estimators here need the branch that is continuous along the contour and
real at y = 0. Its real part is log|f| at each point, taken directly; only
its argument is tracked, as the sum of the turns of consecutive steps.

One function decides every step (``_turns``), on the grid, on a finer grid
and on each bisected piece: a step that settles turns by the principal Arg
of its ratio. It settles when the ratio lies in the disk |ratio - 1| <= 1/2,
which keeps it in the right half-plane, away from the cut. A step outside
the disk is wide, and it settles too, without any evaluation, when the
caller bounds |f''| along the contour: over a step of width h, f then stays
within that bound times h^2 / 8 of the chord from one value to the next, so
a chord farther than that from 0, plus a rounding margin, proves that f
misses 0 on the step and turns as the chord does. Such a step is certified.

When the caller can give the transform on a finer grid over the same
[0, T], a grid with a step that does not settle has its argument tracked
there instead, and the argument at the coarse grid's points is kept: there
most steps of a transform near zero are narrow again, and the certificate,
whose reach grows as h^2 shrinks, settles most of the rest. The steps that
still do not settle, on whichever grid is tracked, are bisected until
every piece settles. The bisection runs in passes, one per level: each
pass halves every pending piece of every such step and evaluates all the
midpoints in one call of the evaluator. Most grids have no wide step: they
are neither certified, refined nor bisected, and the bound is never asked
for. The empirical transform's grid result (``transforms``) gives all
three: its bound, formed once, its finer grid, and midpoints summed from
the samples it already spread.

The log is tracked on the half grid y in [0, T] only, upward from the
anchor y = 0: the transforms are of real measures, so on y < 0 the branch
is the conjugate.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, NearZeroTransform, ParameterError
from .transforms import ContourGrid, TransformValues

# A step settles as it is when its ratio z has |z - 1| <= _RATIO_RADIUS;
# wider steps are certified, refined or bisected. 1/2 keeps every such z
# in Re(z) >= 1/2, far from the branch cut, while tolerating genuinely
# fast-varying transforms.
_RATIO_RADIUS = 0.5

# Rounding margin of the chord certificate (``_turns``), 5 times the
# largest error of the empirical transform's values that ``transforms``
# quotes (2e-13, the rounding of the phases y x for a lone sample far out):
# an error e at the ends moves the chord by at most e. It also covers the
# rounding of the bound times h^2 / 8 (relative 1e-13 for the empirical
# transform's at n = 2 000, on values below 1 where a chord of values of
# modulus at most 1 can pass), of the chord's nearest point and of the
# step's width.
_CHORD_MARGIN = 1e-12

# Most bisection passes, each halving every pending piece once, before log
# tracking gives up.
_REFINE_LIMIT = 40

# Relative tolerance for the imaginary part of the transform at the real
# anchor point s = c, where the value must be real and positive.
_ANCHOR_IMAG_TOL = 1e-9


def _turns(s_from: np.ndarray, f_from: np.ndarray, s_to: np.ndarray,
           f_to: np.ndarray, curvature: Callable | None
           ) -> tuple[np.ndarray, np.ndarray]:
    """The principal Arg of the ratio f_to / f_from of each step from s_from
    to s_to, and whether the step settles: whether that Arg is the step's
    continuous turn.

    A step in the disk |ratio - 1| <= _RATIO_RADIUS settles. A wide step
    settles when it is certified: given ``curvature``, called only when a
    step is wide, the bound it returns on |f''| keeps f within bound h^2 / 8
    of the chord [f_from, f_to] over a step of width h, so a chord farther
    than that plus _CHORD_MARGIN from 0 keeps f off 0 and turning like the
    chord. Its point nearest 0 is at the parameter -Re(f_from / chord),
    clipped to [0, 1]; a wide step's chord is nonzero. A zero f_to raises
    NearZeroTransform naming its point.
    """
    if not f_to.all():
        k = int(np.flatnonzero(f_to == 0.0)[0])
        raise NearZeroTransform(f"transform vanishes at s = {s_to[k]}")
    ratios = f_to / f_from
    settled = np.abs(ratios - 1.0) <= _RATIO_RADIUS
    if curvature is not None and not settled.all():
        wide = np.flatnonzero(~settled)
        chord = f_to[wide] - f_from[wide]
        nearest = f_from[wide] + np.clip(-(f_from[wide] / chord).real,
                                         0.0, 1.0) * chord
        width = (s_to[wide] - s_from[wide]).imag
        settled[wide] = (np.abs(nearest)
                         > curvature() * width * width / 8.0 + _CHORD_MARGIN)
    return np.angle(ratios), settled


def _bisected_angles(evaluator: Callable, s_from: np.ndarray,
                     f_from: np.ndarray, s_to: np.ndarray, f_to: np.ndarray,
                     curvature: Callable | None) -> np.ndarray:
    """Continuous turn of the transform, from Arg f_from to Arg f_to, over
    each wide step from s_from to s_to, by bisection in passes.

    Each pass halves every pending piece at its midpoint, evaluates all the
    midpoints in one ``evaluator`` call, and adds the principal Arg of each
    half that settles (``_turns``) to its step's sum; the other halves are
    pending in the next pass. A zero value at a midpoint raises
    NearZeroTransform naming it, and so does a piece still pending after
    _REFINE_LIMIT passes, naming its ends.
    """
    total = np.zeros(s_from.size)
    step = np.arange(s_from.size)
    for _ in range(_REFINE_LIMIT):
        s_mid = 0.5 * (s_from + s_to)
        f_mid = np.asarray(evaluator(s_mid), dtype=complex)
        if not f_mid.all():
            k = int(np.flatnonzero(f_mid == 0.0)[0])
            raise NearZeroTransform(f"transform vanishes near s = {s_mid[k]}")
        # the left halves, then the right halves
        s_from = np.concatenate([s_from, s_mid])
        s_to = np.concatenate([s_mid, s_to])
        f_from = np.concatenate([f_from, f_mid])
        f_to = np.concatenate([f_mid, f_to])
        step = np.concatenate([step, step])
        angles, done = _turns(s_from, f_from, s_to, f_to, curvature)
        # halves of one step can settle in the same pass, so their angles
        # are summed by bincount, not by fancy-index assignment
        total += np.bincount(step[done], angles[done], total.size)
        if done.all():
            return total
        wide = ~done
        s_from, f_from = s_from[wide], f_from[wide]
        s_to, f_to, step = s_to[wide], f_to[wide], step[wide]
    raise NearZeroTransform(
        f"log tracking failed to converge between {s_from[0]} and {s_to[0]}; "
        "the transform is too close to zero on the contour")


def track_log(evaluator: Callable, grid: ContourGrid, values: np.ndarray,
              refine: Callable | None = None,
              curvature: Callable | None = None) -> TransformValues:
    """Track the continuous logarithm of ``evaluator`` on the half grid.

    ``values`` holds the evaluator's values at the m + 1 grid points, in
    their order; ParameterError when its shape is not the grid's. The real
    part of the log is log|f| of those values. Its argument starts at 0 at
    the real anchor s = c (index 0) and is continued up the points y in
    [0, t_max], each step turning by the principal Arg of its ratio z where
    it settles (``_turns``): z lies in the disk |z - 1| <= 1/2, or the step
    is wide, outside it, and certified. The steps of a grid are decided in
    one vectorized pass; grids without a wide step take the turn of every
    ratio as it is.

    ``curvature``, if given, is called with no arguments and returns a
    bound on |f''| along the contour, the derivative taken in y. It is
    called only for a batch of steps with a wide one: at most once for the
    grid, once for the finer grid and once per bisection pass, so a bound
    that is costly to form should be kept, as the grid transform's
    ``curvature_bound`` keeps its own. A wide step whose chord stays
    farther from 0 than that bound times h^2 / 8, plus _CHORD_MARGIN, is
    certified.

    ``refine``, if given, is called with no arguments, once and only when
    a step of the grid does not settle, and returns the same transform's
    TransformValues on a grid a whole number of times finer over the same
    [0, t_max], as the grid transform's ``refined`` does, or None. Given
    such values, the argument is tracked on their grid, and every
    (fine m / m)-th value of it is returned. The steps that still do not
    settle, on whichever grid is tracked, are bisected until every piece
    settles at its own width, in at most _REFINE_LIMIT passes; each pass
    calls ``evaluator`` once, with the array of all its midpoints, so
    ``evaluator`` must accept a 1-d complex array. A zero value on a
    tracked grid or at a midpoint, and a step that never settles, raise
    NearZeroTransform.

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
    angles, settled = _turns(pts[:-1], vals[:-1], pts[1:], vals[1:],
                             curvature)
    out = np.empty(vals.size, dtype=complex)
    out.real = np.log(np.abs(vals))
    keep = 1
    if not settled.all():
        fine = None if refine is None else refine()
        if fine is not None:
            keep = fine.grid.m // grid.m
            pts, vals = fine.grid.points, fine.values
            angles, settled = _turns(pts[:-1], vals[:-1], pts[1:], vals[1:],
                                     curvature)
        rest = np.flatnonzero(~settled)
        if rest.size:
            angles[rest] = _bisected_angles(evaluator, pts[rest], vals[rest],
                                            pts[rest + 1], vals[rest + 1],
                                            curvature)
    out.imag[0] = 0.0
    out.imag[1:] = np.cumsum(angles)[keep - 1::keep]
    return TransformValues(grid, out)
