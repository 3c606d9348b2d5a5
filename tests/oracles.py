"""Reference computations that tests check the library against.

A plain helper module, not a test file: test modules import it by name.
"""
from typing import Callable

import numpy as np

from laptail.inversion import bromwich_details, build_grid
from laptail.transforms import JobModel, SampleSet, TransformValues

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
