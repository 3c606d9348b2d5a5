"""Continuous logarithm of a transform along the Bromwich contour.

The principal logarithm jumps when a curve crosses the negative real axis;
the estimators here need the branch that is continuous along the contour and
real at y = 0. We build it by summing the principal logs of consecutive
ratios, bisecting any step whose ratio strays too far from 1. Within
|ratio - 1| <= 1/2 the principal log is the continuous increment, since
that disk keeps the ratio in the right half-plane, away from the cut. Each
increment is computed in real arithmetic: with u = ratio - 1, its real part
is log1p(u.re (2 + u.re) + u.im^2) / 2 and its imaginary part
arctan2(ratio.im, ratio.re), several times faster than the complex log on
these near-one ratios and as accurate.

The log is tracked on the half grid y in [0, T] only, upward from the
anchor y = 0: the transforms are of real measures, so on y < 0 the branch
is the conjugate.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DomainError, NearZeroTransform, ParameterError
from .transforms import ContourGrid, TransformValues

# A ratio step is accepted only when |ratio - 1| <= _RATIO_RADIUS; larger
# steps are bisected. 1/2 keeps every accepted ratio in Re(z) >= 1/2, far
# from the branch cut, while tolerating genuinely fast-varying transforms.
_RATIO_RADIUS = 0.5

# Most levels of bisection of one grid step before log tracking gives up.
_REFINE_LIMIT = 40

# Relative tolerance for the imaginary part of the transform at the real
# anchor point s = c, where the value must be real and positive.
_ANCHOR_IMAG_TOL = 1e-9


def _log_near_one(z):
    """Principal log of z (a complex scalar or array) for |z - 1| <= 1/2.

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


def _refined_log_ratio(evaluator: Callable, s_from: complex, f_from: complex,
                       s_to: complex, f_to: complex, depth: int) -> complex:
    """Continuous log of f_to/f_from, bisecting until each ratio is near 1."""
    if abs(f_from) == 0.0 or abs(f_to) == 0.0:
        raise NearZeroTransform(f"transform vanishes near s = {s_to}")
    ratio = f_to / f_from
    if abs(ratio - 1.0) <= _RATIO_RADIUS:
        return complex(_log_near_one(ratio))
    if depth <= 0:
        raise NearZeroTransform(
            f"log tracking failed to converge between {s_from} and {s_to}; "
            "the transform is too close to zero on the contour")
    s_mid = 0.5 * (s_from + s_to)
    f_mid = complex(evaluator(s_mid))
    left = _refined_log_ratio(evaluator, s_from, f_from, s_mid, f_mid, depth - 1)
    right = _refined_log_ratio(evaluator, s_mid, f_mid, s_to, f_to, depth - 1)
    return left + right


def track_log(evaluator: Callable, grid: ContourGrid,
              values: np.ndarray | None = None) -> TransformValues:
    """Track the continuous logarithm of ``evaluator`` on the half grid.

    Starting from the real anchor s = c (index 0) with log f(c) = ln f(c),
    the log is continued up the m + 1 points y in [0, t_max]: each increment
    is the principal log of the ratio z of consecutive transform values,
    taken in real arithmetic by the helper the bisection also uses, with
    recursive bisection (extra evaluator calls, at most _REFINE_LIMIT
    levels) whenever the ratio leaves the disk |z - 1| <= 1/2. Ratios whose
    modulus is zero, and steps that never settle, raise NearZeroTransform.
    ``values`` may carry precomputed transform values on the grid to avoid
    re-evaluation.

    The anchor value f(c) must be real positive (relative imaginary part
    within 1e-9), else DomainError: transforms of nonnegative measures are
    real on the real axis, so anything else means the evaluator is not one.
    """
    pts = grid.points
    if values is None:
        vals = np.asarray(evaluator(pts), dtype=complex)
    else:
        vals = np.asarray(values, dtype=complex)
        if vals.shape != pts.shape:
            raise ParameterError("values must match the grid")
    f_c = complex(vals[0])
    if not (f_c.real > 0.0) or abs(f_c.imag) > _ANCHOR_IMAG_TOL * abs(f_c):
        raise DomainError(
            f"transform at s = {grid.c} must be real and positive, got {f_c}")
    if np.any(vals == 0.0):
        k = int(np.flatnonzero(vals == 0.0)[0])
        raise NearZeroTransform(f"transform vanishes at s = {pts[k]}")
    # increments for the easy steps in one vectorized pass, then patch the
    # few wide ones by bisection
    ratios = vals[1:] / vals[:-1]
    near = np.abs(ratios - 1.0) <= _RATIO_RADIUS
    incs = _log_near_one(np.where(near, ratios, 1.0))
    for k in np.flatnonzero(~near):
        incs[k] = _refined_log_ratio(
            evaluator, complex(pts[k]), complex(vals[k]),
            complex(pts[k + 1]), complex(vals[k + 1]), _REFINE_LIMIT)
    out = np.empty(vals.size, dtype=complex)
    out[0] = np.log(f_c.real)
    out[1:] = out[0] + np.cumsum(incs)
    return TransformValues._adopt(grid, out)
