"""Reference computations that tests check the library against.

A plain helper module, not a test file: test modules import it by name.
"""
import math
from typing import Callable

import numpy as np

from laptail.inversion import bromwich_details, build_grid
from laptail.transforms import (ContourGrid, JobModel, SampleSet,
                               TransformValues)

# Largest number of terms e^{-s x} formed at once by ``direct_transform``.
_BLOCK_TERMS = 1 << 22


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
    """Values of ``bromwich_details`` by the same baby-step / giant-step
    sums, one w at a time, with ``einsum`` calls of its own for the baby
    steps and the giant step of each w. The library takes those of every w
    in one ``einsum`` each and must round every value the same."""
    ws = np.asarray(ws, dtype=float)
    grid = psi.grid
    h = grid.spacing
    k = grid.n_points
    b = math.isqrt(k - 1) + 1
    q = -(-k // b)
    weights = np.ones(k)
    weights[[0, -1]] = 0.5
    coeffs = np.zeros(q * b, dtype=complex)
    np.subtract(psi.values, plateau, out=coeffs[:k])
    coeffs[:k] *= weights / grid.points
    table = coeffs.reshape(q, b)
    steps = np.concatenate([np.arange(b), np.arange(0, q * b, b)])
    powers = np.exp(1j * np.multiply.outer(h * ws, steps))
    values = []
    for w, row in zip(ws, powers):
        baby = np.einsum("qr,r->q", table, row[:b])
        total = np.einsum("wq,wq->w", baby[None], row[None, b:])[0]
        values.append(float(plateau + h * np.exp(grid.c * w)
                            * total.real / math.pi))
    return tuple(values)
