"""Continuous logarithm of a transform along the Bromwich contour.

The principal logarithm jumps when a curve crosses the negative real axis;
the estimators here need the branch that is continuous along the contour and
real at y = 0. Its real part is log|f| at each point, taken directly; only
its argument is tracked, as the sum of the principal arguments of
consecutive ratios. Within |ratio - 1| <= 1/2 the principal argument is the
continuous turn, since that disk keeps the ratio in the right half-plane,
away from the cut.

A grid step whose ratio leaves the disk is wide. A wide step is settled
without any evaluation when the caller bounds |f''| along the contour, as
the empirical transform's M2 = (1/n) sum x^2 e^{-c x} does: over a step of
width h, f then stays within M2 h^2 / 8 of the chord from one value to the
next, so a chord farther than that from 0, plus a rounding margin, proves
that f misses 0 on the step and turns as the chord does, by the principal
Arg of the ratio. Such a step is certified. When the caller can give the
transform on a finer grid, as the empirical transform's grid result can, a
grid with a wide step that is not certified has its argument tracked
instead on the grid _REFINE_FACTOR times finer over the same [0, T], and
every _REFINE_FACTOR-th value is kept: there most steps of a transform
near zero are narrow again, and the certificate, whose reach grows as h^2
shrinks, settles most of the rest. The grid result gives the finer grid
from the runs of the samples it already spread, whatever the turns of
their phases, by one fold and one FFT, onto a finer grid and
deconvolution kept for every transform on the same grid (``transforms``):
for 2 000 samples at T = 45 that took 0.05 ms on the 721 points, against
0.12 ms for the coarse grid's whole transform on its 181. The steps still
wide and uncertified there, and those of a grid tracked without such a
caller, are bisected until every piece is in the disk or certified at its
own width.
The bisection runs in passes, one per level: each pass halves every
pending piece of every such step and evaluates all the midpoints in one
call of the evaluator. The empirical transform's evaluator sums the
midpoints from the runs that the grid result kept, folded onto the cells
of their arc (``transforms``), so a midpoint costs a cosine and a sine per
cell of that arc, about 190 cells for 2 000 samples at T = 45, not n
exponentials; the finer grid and the certificate leave few midpoints. Most
grids have no wide step: they are neither certified, refined nor bisected,
and the bound is never formed.

The log is tracked on the half grid y in [0, T] only, upward from the
anchor y = 0: the transforms are of real measures, so on y < 0 the branch
is the conjugate.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, NearZeroTransform, ParameterError
from .transforms import _MAX_GRID_POINTS, ContourGrid, TransformValues

# A ratio step is accepted as it is when |ratio - 1| <= _RATIO_RADIUS;
# larger steps are certified or bisected. 1/2 keeps every such ratio in
# Re(z) >= 1/2, far from the branch cut, while tolerating genuinely
# fast-varying transforms.
_RATIO_RADIUS = 0.5

# A grid with a wide step that is not certified is tracked on the grid this
# many times finer, if that grid has at most _MAX_GRID_POINTS points, the
# quadrature grid's cap; past it the wide steps are only certified or
# bisected. The finer grid, folded from the runs the quadrature grid kept of
# its spread, costs one fold and one FFT of factor times its cells; each
# midpoint left costs a cosine and a sine per cell of the runs' arc, summed
# from the same runs. Over its 150-job pools at seeds 1-40, factor 4 leaves
# 88 midpoints per pool, 8 leaves 17.7 and 16 leaves 4.0. With the midpoints
# that cheap, perfbench's decompound-mix ran 2 402 jobs/s at factor 4 and
# 2 385/s at 8, against 2 087/s with the midpoints summed directly at factor
# 4 (medians of 4 rotating 15 s rounds on a 2-vCPU host); summed directly, 8
# had been 12% faster. Without refinement every uncertified step of the
# quadrature grid is bisected: earlier rounds read 792/s so, against 1 945/s
# at factor 4. 4 also leaves one midpoint in the 6-job pool (seed 3) that
# perfbench's smoke test requires to bisect, where 8 leaves none.
_REFINE_FACTOR = 4

# Rounding margin of the chord certificate (``_certified``), 5 times the
# largest error of the empirical transform's values that ``transforms``
# quotes (2e-13, the rounding of the phases y x for a lone sample far out):
# an error e at the ends moves the chord by at most e. It also covers the
# rounding of the bound M2 h^2 / 8 (relative 1e-13 at n = 2 000, on values
# below 1 where a chord of values of modulus at most 1 can pass), of the
# chord's nearest point and of the step's width.
_CHORD_MARGIN = 1e-12

# Most bisection passes, each halving every pending piece once, before log
# tracking gives up.
_REFINE_LIMIT = 40

# Relative tolerance for the imaginary part of the transform at the real
# anchor point s = c, where the value must be real and positive.
_ANCHOR_IMAG_TOL = 1e-9


def _certified(s_from: np.ndarray, f_from: np.ndarray, s_to: np.ndarray,
               f_to: np.ndarray, bound: float | None) -> np.ndarray:
    """Whether each step from s_from to s_to provably turns the transform by
    the principal Arg(f_to / f_from); all False without a ``bound``.

    With |f''| <= bound along the contour, f stays within bound h^2 / 8 of
    the chord [f_from, f_to] over a step of width h, so a chord farther
    than that plus _CHORD_MARGIN from 0 keeps f off 0 and turning like the
    chord. Its point nearest 0 is at the parameter -Re(f_from / chord),
    clipped to [0, 1]. The steps must be wide: the chord is then nonzero.
    """
    if bound is None:
        return np.zeros(f_from.shape, dtype=bool)
    chord = f_to - f_from
    nearest = f_from + np.clip(-(f_from / chord).real, 0.0, 1.0) * chord
    width = (s_to - s_from).imag
    return np.abs(nearest) > bound * width * width / 8.0 + _CHORD_MARGIN


def _bisected_angles(evaluator: Callable, s_from: np.ndarray,
                     f_from: np.ndarray, s_to: np.ndarray, f_to: np.ndarray,
                     bound: float | None) -> np.ndarray:
    """Continuous turn of the transform, from Arg f_from to Arg f_to, over
    each wide step from s_from to s_to, by bisection in passes.

    Each pass halves every pending piece at its midpoint, evaluates all the
    midpoints in one ``evaluator`` call, and accepts each half whose ratio
    lies in the disk |z - 1| <= 1/2 or, with a ``bound`` on |f''|, that
    ``_certified`` accepts at its own width, adding the principal Arg of its
    ratio to its step's sum; the other halves are pending in the next pass.
    A zero value at a midpoint raises NearZeroTransform naming it, and so
    does a piece still pending after _REFINE_LIMIT passes, naming its ends.
    """
    total = np.zeros(s_from.size)
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
        done = np.abs(ratios - 1.0) <= _RATIO_RADIUS
        wide = ~done
        done[wide] = _certified(s_from[wide], f_from[wide], s_to[wide],
                                f_to[wide], bound)
        # halves of one step can be accepted in the same pass, so their
        # angles are summed by bincount, not by fancy-index assignment
        total += np.bincount(step[done], np.angle(ratios[done]), total.size)
        if done.all():
            return total
        wide = ~done
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
              refine: Callable | None = None,
              curvature: Callable | None = None) -> TransformValues:
    """Track the continuous logarithm of ``evaluator`` on the half grid.

    ``values`` holds the evaluator's values at the m + 1 grid points, in
    their order; ParameterError when its shape is not the grid's. The real
    part of the log is log|f| of those values. Its argument starts at 0 at
    the real anchor s = c (index 0) and is continued up the points y in
    [0, t_max]: each turn is the principal Arg of the ratio z of
    consecutive values, taken in one vectorized pass. That pass decides
    which steps are wide, their ratio outside the disk |z - 1| <= 1/2.
    Grids without one take the turn of every ratio as it is.

    ``curvature``, if given, is called with no arguments, once and only
    when a grid has a wide step, and returns a bound on |f''| along the
    contour, the derivative taken in y. A wide step whose chord stays
    farther from 0 than that bound times h^2 / 8, plus _CHORD_MARGIN, is
    certified (``_certified``) and turns by the principal Arg of its ratio.

    ``refine``, if given, maps a factor to the same transform's
    TransformValues on the grid that many times finer over the same
    [0, t_max], as the grid transform's ``refined`` does. A grid with a wide
    step that is not certified then has its argument tracked on
    ``refine(_REFINE_FACTOR)``, and every _REFINE_FACTOR-th value of that
    argument is returned; not if that grid would have more than 5 * 10^6
    points, the cap of ``build_grid``. The finer values are built for the
    call and not kept. The wide steps still uncertified, on whichever grid
    is tracked, are bisected until every piece is in the disk or certified
    at its own width, in at most _REFINE_LIMIT passes; each pass calls
    ``evaluator`` once, with the array of all its midpoints, so
    ``evaluator`` must accept a 1-d complex array. A zero
    value on a tracked grid or at a midpoint, and a step that never
    settles, raise NearZeroTransform.

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
    out = np.empty(vals.size, dtype=complex)
    out.real = np.log(np.abs(vals))
    keep, rest = 1, ()
    if not near.all():
        bound = None if curvature is None else float(curvature())
        wide = np.flatnonzero(~near)
        sure = _certified(pts[wide], vals[wide], pts[wide + 1],
                          vals[wide + 1], bound)
        if (refine is not None and not sure.all()
                and _REFINE_FACTOR * grid.m < _MAX_GRID_POINTS):
            keep = _REFINE_FACTOR
            fine = refine(keep)
            pts, vals = fine.grid.points, fine.values
            ratios, near = _ratios(pts, vals)
            wide = np.flatnonzero(~near)
            sure = _certified(pts[wide], vals[wide], pts[wide + 1],
                              vals[wide + 1], bound)
        rest = wide[~sure]
    # the turns of every step in one vectorized pass, right for those in
    # the disk and those certified; the others are bisected
    angles = np.angle(ratios)
    if len(rest):
        angles[rest] = _bisected_angles(evaluator, pts[rest], vals[rest],
                                        pts[rest + 1], vals[rest + 1], bound)
    out.imag[0] = 0.0
    out.imag[1:] = np.cumsum(angles)[keep - 1::keep]
    return TransformValues(grid, out)
