"""Laplace transforms on the Bromwich contour.

Empirical transforms of nonnegative samples, closed-form transforms of a few
analytic models used as oracles and simulators, and the sample file format.
All transforms are evaluated on the closed right half-plane Re(s) >= 0 only.
They are transforms of real measures, so psi(c - iy) = conj psi(c + iy) and
a contour grid covers only y >= 0: the half grid s_k = c + i k h for
k = 0 .. m, with t_max = m h.

On that grid the empirical transform is a type-1 non-uniform DFT,
(1/n) sum_j a_j e^{-i k theta_j} with real weights a_j = e^{-c x_j} and
theta_j = h x_j mod 2 pi. ``empirical_transform_grid`` evaluates it with a
Gaussian-gridding NUFFT (Greengard & Lee, SIAM Review 46(3), 2004; Dutt &
Rokhlin, SIAM J. Sci. Comput. 14, 1993) in O(n P + B W P + K log K) for n
samples in B occupied cells, K grid points and a kernel spread over W = 32
cells, instead of O(n K) products. The K modes k = 0 .. K-1 are taken as
the upper half of a centred range of 2K modes, so the weights stay real and
one real FFT over a periodic grid of at least 4K cells gives every mode.
The last term is that FFT. When the phases occupy a short arc of A cells
of a large grid, it is pruned to the arc: about 2K / A transforms of about
A cells, O(K log A), since the weights are real and the other 2K / A rows
mirror these (see ``_phase_sums``).

The kernel is never evaluated per sample. Within one cell each of its W
columns is a polynomial of degree P = 14 in the sample's position, fitted
once per grid size at Chebyshev nodes, as in FINUFFT's piecewise-polynomial
kernel evaluation (Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput.
41(5), 2019). So the samples of a cell enter only through their P + 1
weighted moments, and the kernel is applied once per occupied cell. Only
occupied cells get moments, and the spread covers only the arc of the
circle that the phases occupy, often a small part of it since h x is small
on a fine grid; the arc is folded onto the periodic grid by cell index, so
a whole-grid FFT needs no phase factor.

For samples of continuous laws the error against direct evaluation stays
below 1.5e-14 absolute and does not grow with K: 8.9e-15 at most for
samples of Exp(mean 0.05), whose phases all sit near 0, and 3.3e-15 for
Exp(mean 1) and Gamma(20, 0.05), over five seeds of 2000 samples at 201 to
32 001 points. Tied samples fall into one cell, and each moment sum adds
the samples of a cell one after another, so its rounding grows with their
number. Against the exact e^{-s x} on the 8 001 points of T = 400 the error
was 2.7e-14 for 2 000 copies of x = 1, 1.1e-13 for 10^4 copies of 0.3 and
1.15e-12 for 10^5 copies of 0.3; for 10^4 tied samples it stays below
2e-13.

At single points ``empirical_transform_eval`` sums one exponential per
sample. At two or more points it can use the same idea as the NUFFT's
spreading, the expansion about cell centres of Dutt & Rokhlin, applied to
point evaluation: cells of width about pi / (2 max|s|), a Taylor series of
degree 17 in each, and the samples entered through per-cell moments. That
costs O(n P + m B P) for m points and B cells instead of m n exponentials,
and is used where it was measured to pay (see ``_cell_sums``).
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.polynomial import chebyshev
from scipy import special

from .errors import ParameterError, SampleFileError

# Largest number of scalar exponential evaluations done in one vectorized
# block when evaluating a transform at many points directly.
_DIRECT_BLOCK = 1 << 22

# Below this exponent e^{-x} is still a normal double, so a direct term whose
# Re(s) x stays below it is never flushed to 0 (that happens near 745).
_EXP_NONZERO = 700.0

# Gaussian-gridding NUFFT: each sample is spread over 2 * _SPREAD_HALF_WIDTH
# cells of a grid with at least _OVERSAMPLE cells per mode of the centred mode
# range, with the kernel width of Greengard & Lee. At half-width 16 the kernel
# truncation and aliasing errors sit below rounding (max error 6.2e-15 on
# 8 001 points for 2000 exponential samples of mean 0.05); half-width 12 gave
# 4e-13 and 8 gave 2e-9 on the same case.
_SPREAD_HALF_WIDTH = 16
_OVERSAMPLE = 2
_SPREAD_OFFSETS = np.arange(1 - _SPREAD_HALF_WIDTH, _SPREAD_HALF_WIDTH + 1)
# Degree P of the polynomial that replaces the kernel within one cell. Its
# monomial coefficients stay below 1 and degree 14 fits every column within
# 1e-15. Degree 12 fits as well but took the grid transform to 1.3e-14 of
# its 1.5e-14 bound; degree 10 fits only to 3.6e-14.
_KERNEL_DEGREE = 14
_CHEB_NODES = np.cos(math.pi * (np.arange(_KERNEL_DEGREE + 1) + 0.5)
                     / (_KERNEL_DEGREE + 1))
_CHEB_VANDER = chebyshev.chebvander(_CHEB_NODES, _KERNEL_DEGREE)
# The final FFT is pruned to the occupied arc (see ``_phase_sums``) only
# where that was measured to pay: on grids of 24 000 cells or more, and for
# arcs short enough to give 16 rows or more. Timed on the grid transform of
# 200 samples, pruning cost up to 8% on 12 150 cells and saved at most 4%
# there; on 24 300 cells it cost 12% at 8 rows, broke even at 12 and saved
# 6% at 16 and 17% at 64; on 32 400 cells it saved 27% at 8 rows and 50% at
# 150. Above 2^17 cells it is not used, so the twiddle tables kept, at most
# 2 of 2^16 + 1 complex values, stay within 2.1 MB whatever the grid size.
_PRUNE_MIN_CELLS = 24_000
_PRUNE_MAX_CELLS = 1 << 17
_PRUNE_MIN_ROWS = 16
_TWIDDLE_TABLES = 2


# Point evaluation by per-cell Taylor moments (``_cell_sums``). A cell is
# the largest power of two within _CELL_PHASE / max|s| wide, so |s| times
# half a cell stays within pi / 4, where the Taylor series of e^{-s x} cut
# after degree 17 is off by at most (pi/4)^18 / 18! e^{pi/4}, 4e-18 of each
# term. Its fixed cost, 18 moment sums over the samples, was measured to
# pay only with at least 2 points and 6 000 sample-point pairs, and only
# while the samples span at most 1/4 cell per sample, since every cell
# takes two exponentials per point. Cell path over direct sum, time per
# call, for samples spanning 0.1 cell per sample: n = 2000 at 2 / 4 / 8
# points 1.18 / 0.48 / 0.30; n = 500 at 4 / 8 / 16 points 1.09 / 0.64 /
# 0.40; n = 200 at 8 / 16 points 1.30 / 0.73. At 1/4 cell per sample and
# n = 2000, 4 points took 0.77; at 1/2, 4 points took 1.14 and 8 took 0.85.
_CELL_PHASE = 0.5 * math.pi
_CELL_DEGREE = 17
_CELL_MAX_SPAN = 0.25
_CELL_MIN_POINTS = 2
_CELL_MIN_TERMS = 6000
_INVERSE_ORDERS = 1.0 / np.arange(1, _CELL_DEGREE + 1)


def _cheb_to_mono(degree: int) -> np.ndarray:
    """Column j holds the monomial coefficients of the Chebyshev polynomial
    T_j, from T_j = 2 t T_{j-1} - T_{j-2}; they are integers, so exact.
    (``chebyshev.cheb2poly`` gives the same columns but took 4 ms at import.)
    """
    out = np.zeros((degree + 1, degree + 1))
    out[0, 0] = 1.0
    out[1, 1] = 1.0
    for j in range(2, degree + 1):
        out[1:, j] = 2.0 * out[:-1, j - 1]
        out[:, j] -= out[:, j - 2]
    return out


_CHEB_TO_MONO = _cheb_to_mono(_KERNEL_DEGREE)


def _require_right_half_plane(s: complex | np.ndarray) -> np.ndarray:
    s = np.asarray(s, dtype=complex)
    if np.any(s.real < 0):
        raise ParameterError("transform arguments must satisfy Re(s) >= 0")
    return s


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Immutable set of nonnegative observations with cached summaries.

    Parameters
    ----------
    values : array_like
        Nonnegative finite reals, at least one.

    Attributes
    ----------
    n : int
        Number of observations.
    mean : float
        Arithmetic mean of the values.
    zero_fraction : float
        Fraction of values exactly equal to 0.0. Zeros of simulated data
        are exact, and the grid transform treats the same values as zeros.
    max_value : float
        Largest value.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise ParameterError("sample values must be one-dimensional")
        if vals.size < 1:
            raise ParameterError("a sample set needs at least one value")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("sample values must be finite")
        if np.any(vals < 0):
            raise ParameterError("sample values must be nonnegative")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "n", int(vals.size))
        object.__setattr__(self, "mean", float(vals.mean()))
        object.__setattr__(self, "max_value", float(vals.max()))
        zeros = int(np.count_nonzero(vals == 0.0))
        object.__setattr__(self, "zero_fraction", zeros / vals.size)


@dataclass(frozen=True, eq=False)
class ContourGrid:
    """Uniform half grid on the vertical contour Re(s) = c.

    ``m`` intervals of length t_max / m over y in [0, t_max], an even number
    so the first m / 2 + 1 points are a grid over [0, t_max / 2]; grid
    points are s = c + i*y for the m + 1 ordinates y_k = k t_max / m, with
    the real anchor y = 0 at index 0. The transforms here are of real
    measures, so psi(c - iy) = conj psi(c + iy) and the lower half of the
    contour carries no information.

    A grid is immutable, so one instance can be shared: ``build_grid`` hands
    out the same grid for equal arguments and keeps the last 4, each with
    its ordinates (8 bytes per point), points (16) and inversion plan: the
    trapezoid weights over the points (16) and about 2 sqrt(K) phase steps of
    the K points, 40 bytes per point in all. The grid transform on 5 833
    to 32 768 points also keeps a twiddle table of about 32 bytes per point
    (``_twiddles``), for the last 2 such grid sizes: 2.1 MB at most.
    """

    c: float
    t_max: float
    m: int

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ParameterError("contour abscissa c must be positive")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ParameterError("truncation level t_max must be positive")
        m = self.m
        if not (isinstance(m, int) and not isinstance(m, bool)
                and m >= 2 and m % 2 == 0):
            raise ParameterError("interval count m must be an even int >= 2")

    @property
    def n_points(self) -> int:
        return self.m + 1

    @property
    def center_index(self) -> int:
        """Index of the anchor y = 0, always 0.

        Kept read-only only until the benchmark stops reading it (ROADMAP
        item 1).
        """
        return 0

    @property
    def spacing(self) -> float:
        """Uniform step t_max / m.

        Taken from the end point rather than a difference of neighbours,
        which carries the rounding of t_max and is off by ~1e-12 relative.
        """
        return self.t_max / self.m

    @functools.cached_property
    def ys(self) -> np.ndarray:
        """Ordinates 0 .. t_max (read-only, computed once)."""
        ys = np.linspace(0.0, self.t_max, self.m + 1)
        ys.flags.writeable = False
        return ys

    @functools.cached_property
    def points(self) -> np.ndarray:
        """Complex grid points c + i*y (read-only, computed once)."""
        pts = self.c + 1j * self.ys
        pts.flags.writeable = False
        return pts


@dataclass(frozen=True, eq=False)
class TransformValues:
    """Values on a contour grid, one per point: a transform, the tracked
    log of one, or a mapped transform."""

    grid: ContourGrid
    values: np.ndarray

    def __post_init__(self):
        self._own(np.array(self.values, dtype=complex))

    @classmethod
    def _adopt(cls, grid: ContourGrid, values: np.ndarray) -> TransformValues:
        """Wrap a freshly computed array that no caller holds, without the
        copy the constructor makes: the array is made read-only in place."""
        out = object.__new__(cls)
        object.__setattr__(out, "grid", grid)
        out._own(np.asarray(values, dtype=complex))
        return out

    def _own(self, vals: np.ndarray) -> None:
        if vals.shape != (self.grid.n_points,):
            raise ParameterError("one value per grid point required")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


# --------------------------------------------------------------------------
# Analytic models
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with the given rate (mean 1/rate)."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise ParameterError("exponential rate must be positive")

    @property
    def mean(self) -> float:
        return 1.0 / self.rate

    def transform(self, s):
        s = _require_right_half_plane(s)
        return self.rate / (self.rate + s)

    def cdf(self, w):
        w = np.asarray(w, dtype=float)
        return np.where(w < 0, 0.0, -np.expm1(-self.rate * np.maximum(w, 0.0)))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size)

    def sample_sums(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        # sum of k independent draws is gamma(k, 1/rate); k = 0 gives exact 0.0
        return rng.gamma(counts, 1.0 / self.rate)


@dataclass(frozen=True)
class Deterministic:
    """Unit mass at a fixed nonnegative point."""

    point: float

    def __post_init__(self):
        if self.point < 0 or not math.isfinite(self.point):
            raise ParameterError("deterministic point must be finite and >= 0")

    @property
    def mean(self) -> float:
        return self.point

    def transform(self, s):
        s = _require_right_half_plane(s)
        return np.exp(-s * self.point)

    def cdf(self, w):
        w = np.asarray(w, dtype=float)
        return (w >= self.point).astype(float)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.point)

    def sample_sums(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        return counts.astype(float) * self.point


@dataclass(frozen=True)
class Gamma:
    """Gamma distribution, shape/scale parameterization."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0):
            raise ParameterError("gamma shape and scale must be positive")

    @property
    def mean(self) -> float:
        return self.shape * self.scale

    def transform(self, s):
        # principal power; 1 + scale*s stays in the right half-plane on C+
        s = _require_right_half_plane(s)
        return (1.0 + self.scale * s) ** (-self.shape)

    def cdf(self, w):
        w = np.asarray(w, dtype=float)
        return special.gammainc(self.shape, np.maximum(w, 0.0) / self.scale)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.gamma(self.shape, self.scale, size)

    def sample_sums(self, rng: np.random.Generator, counts: np.ndarray) -> np.ndarray:
        return rng.gamma(counts * self.shape, self.scale)


JobModel = Exponential | Deterministic | Gamma


# --------------------------------------------------------------------------
# Empirical transforms
# --------------------------------------------------------------------------

def _exp_terms(s: np.ndarray, x: np.ndarray, largest: float) -> np.ndarray:
    """e^{-s x} broadcast over s and x, given ``largest`` >= every Re(s) x.

    A term whose factor e^{-Re(s) x} is 0 is exactly 0, although its phase
    Im(s) x may overflow and would make e^{-s x} nan.
    """
    if largest <= _EXP_NONZERO:
        return np.exp(-s * x)
    s, x = np.broadcast_arrays(s, x)
    with np.errstate(over="ignore"):
        live = np.exp(-s.real * x) > 0.0
    terms = np.zeros(s.shape, dtype=complex)
    terms[live] = np.exp(-s[live] * x[live])
    return terms


def empirical_transform_eval(samples: SampleSet, s):
    """Empirical Laplace transform (1/n) sum_i exp(-s x_i).

    ``s`` may be a complex scalar or an array with Re(s) >= 0; the result has
    modulus at most 1 and is conjugate-symmetric in s. Samples whose factor
    e^{-Re(s) x_i} underflows add exactly 0. A scalar is evaluated as an
    array of one point.

    An array for which the cell path does not pay, a single point among
    them, is summed directly, one exponential per sample and point, in
    blocks of at most 2^22 terms. An array of m >= 2 points with m n >= 6 000 is evaluated
    from per-cell Taylor moments (``_cell_sums``) when the samples span at
    most n / 4 cells of width pi / (2 max|s|), rounded down to a power of
    two; that is decided from ``max_value`` before anything is allocated,
    so a wide sample, a huge value or an infinite or subnormal |s| takes
    the direct sum. The cell path's 18 moment sums over the samples are
    kept, read-only, for the last sample and cell width only, until a call
    with another sample or width replaces them, so the bisection passes of
    one tracked log share them. They take at most 36 n + 144 bytes, and
    keep that sample's 8 n bytes alive. Zeros sit exactly on the centre of
    cell 0 and add exactly 1 / n each. Against a plain sum of exponentials
    the cell path stayed within 4.5e-16 absolute for Exp(1) and
    Gamma(20, 0.05) samples with 40% zeros, with or without weights that
    underflow, at c = 0.1, 1 and 10; against extended precision it was off
    by 2.3e-16 where the plain sum was off by 2.2e-16. Each moment sum adds
    its cell's samples pairwise, so tied samples off a cell centre cost
    little: 5.4e-15 for 10^4 and for 10^5 copies of 0.3 on the 8 001
    points of T = 400.
    """
    s = _require_right_half_plane(s)
    flat = s.ravel()
    width = _cell_width(samples, flat)
    if width is not None:
        out = _cell_sums(samples, flat, width)
    else:
        x = samples.values
        largest = float(flat.real.max(initial=0.0)) * samples.max_value
        out = np.empty(flat.size, dtype=complex)
        rows = max(1, _DIRECT_BLOCK // max(x.size, 1))
        for start in range(0, flat.size, rows):
            block = flat[start:start + rows, None]
            out[start:start + rows] = _exp_terms(block, x, largest).mean(axis=1)
    return complex(out[0]) if s.ndim == 0 else out.reshape(s.shape)


def _cell_width(samples: SampleSet, s: np.ndarray) -> float | None:
    """Cell width of the cell path at the points of a 1-d ``s``, or None
    where the direct sum is used: the largest power of two within
    _CELL_PHASE / max|s|, if the samples span at most _CELL_MAX_SPAN cells
    of it per sample and the call is large enough to pay."""
    if s.size < _CELL_MIN_POINTS or s.size * samples.n < _CELL_MIN_TERMS:
        return None
    top = float(np.abs(s).max())
    bound = _CELL_PHASE / top if top > 0.0 else math.inf
    if not 0.0 < bound < math.inf:
        return None
    width = math.ldexp(0.5, math.frexp(bound)[1])
    return width if samples.max_value <= _CELL_MAX_SPAN * samples.n * width else None


def _cell_sums(samples: SampleSet, s: np.ndarray, width: float) -> np.ndarray:
    """(1/n) sum_j e^{-s x_j} at the points of a 1-d ``s``, from per-cell
    Taylor moments; ``width`` is a power of two with |s| width <= pi / 2.

    Sample j sits in cell b_j = round(x_j / width), centred on b_j width,
    at offset t_j width / 2 with t_j in [-1, 1]. With sigma = s width and
    z = -sigma / 2, so |z| <= pi / 4,

        sum_j e^{-s x_j} = sum_b e^{-sigma b} sum_p z^p / p! M[b, p],
        M[b, p] = sum_{j in b} t_j^p,

    the Taylor series cut after degree _CELL_DEGREE. The samples enter only
    through the moments, kept for the last sample and width
    (``_cell_moments``), and only the cells take an exponential. Because
    the width is a power of two, x_j / width, t_j and sigma are exact. The
    cells run from 0 to round(max_value / width), empty ones included, at
    most n / 4 + 1 of them where this is called. The m x B terms are
    formed in blocks of at most 2^22, as the direct sum forms its own.
    """
    moments = _cell_moments(samples, width)
    n_cells = moments.shape[1]
    # z^p / p! for p = 1 .. degree, one row per point
    sigma = width * s
    powers = np.cumprod((-0.5 * sigma)[:, None] * _INVERSE_ORDERS, axis=1)
    # A rounded product sigma b repeats its rounding from cell to cell, and
    # those errors added up to 1.1e-15 over the cells of 194 samples. So
    # sigma is split into a head whose product with every b < 2^k is exact
    # and a tail below 2^(k - 53), whose factor e^{-tail b} is near 1.
    grain = math.ldexp(1.0, 52 - n_cells.bit_length())
    head = np.rint(sigma * grain) / grain
    tail = sigma - head
    steps = np.arange(n_cells, dtype=float)
    largest = float(head.real.max()) * steps[-1]
    out = np.empty(s.size, dtype=complex)
    rows = max(1, _DIRECT_BLOCK // n_cells)
    for start in range(0, s.size, rows):
        block = slice(start, start + rows)
        # one real einsum over the real and imaginary rows, in the calling
        # thread as in ``_phase_sums``: a complex BLAS product took about 5%
        # less per call, but its first call alone added 0.6 MiB to peak RSS
        part = powers[block]
        both = np.einsum("mp,pb->mb", np.concatenate([part.real, part.imag]),
                         moments[1:])
        both[:len(part)] += moments[0]
        series = both[:len(part)] + 1j * both[len(part):]
        series *= _exp_terms(head[block, None], steps, largest)
        series *= np.exp(-tail[block, None] * steps)
        out[block] = series.sum(axis=1)
    out /= samples.n
    return out


@functools.lru_cache(maxsize=1)
def _cell_moments(samples: SampleSet, width: float) -> np.ndarray:
    """The (_CELL_DEGREE + 1) x B moments M[b, p] = sum_{j in b} t_j^p of
    ``_cell_sums``, over the cells 0 .. round(max_value / width) of the
    given width (read-only).

    Only the last (sample, width) is kept: the bisection passes of one
    tracked log after the first reuse it, and another sample or width
    replaces it, so an estimate on a new sample computes it afresh. It
    holds at most n / 4 + 1 cells where ``_cell_sums`` is called, so
    18 x 8 (n / 4 + 1) bytes, 36 n + 144; the sample it keeps alive holds
    8 n more.

    The offsets are sorted by cell (stably, so the bits do not depend on
    the sort) and each cell's powers are summed by ``np.add.reduceat``,
    which adds pairwise: a sum that adds a cell's samples one after
    another, as ``np.bincount`` does, grows its rounding with the samples
    in the cell, and one cell may hold nearly all of them.
    """
    u = samples.values / width
    cell = np.rint(u)
    t = u - cell
    t *= 2.0
    index = cell.astype(np.intp)
    n_cells = int(round(samples.max_value / width)) + 1
    counts = np.bincount(index, minlength=n_cells)
    occupied = np.flatnonzero(counts)
    starts = np.cumsum(counts[occupied]) - counts[occupied]
    t = t[np.argsort(index, kind="stable")]
    moments = np.zeros((_CELL_DEGREE + 1, n_cells))
    moments[0] = counts
    term = t.copy()
    for p in range(1, _CELL_DEGREE + 1):
        moments[p, occupied] = np.add.reduceat(term, starts)
        term *= t
    moments.flags.writeable = False
    return moments


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: numpy's FFT is fastest on such lengths."""
    best = 1 << (n - 1).bit_length()
    odd = 1
    while odd < best:
        part = odd
        while part < best:
            best = min(best, part << (-(-n // part) - 1).bit_length())
            part *= 3
        odd *= 5
    return best


class _Kernel(NamedTuple):
    """The NUFFT's spreading kernel for one mode count.

    ``size`` is the number of cells of the periodic grid and ``alpha`` the
    kernel exponent in cells squared. Column o of the (P + 1) x 32 ``poly``
    holds the monomial coefficients in t = 2u - 1 of e^{-alpha (u - o)^2}
    for a sample at fraction u in [0, 1) of its cell. ``deconv`` takes the
    FFT of the spread grid to mode k, k = 0 .. n_modes-1. ``widths`` lists,
    ascending, the row lengths a pruned FFT of the grid may use (see
    ``_phase_sums``): the divisors of ``size`` that leave at least 16 rows,
    and none where pruning does not pay.
    """

    size: int
    alpha: float
    poly: np.ndarray
    deconv: np.ndarray
    widths: np.ndarray


@functools.lru_cache(maxsize=8)
def _kernel(n_modes: int) -> _Kernel:
    """Greengard & Lee's Gaussian for ``n_modes`` upper modes, and its fit.

    All 32 columns are evaluated at the P + 1 Chebyshev nodes in one
    ``exp``, interpolated in the Chebyshev basis and taken to monomials by
    the fixed ``_CHEB_TO_MONO``; the fit matches every column within 1e-15
    on [0, 1). The result is shared between calls and read-only.
    """
    modes = 2 * n_modes
    size = _fft_length(_OVERSAMPLE * modes)
    # Greengard & Lee's tau = pi half_width / (M^2 R (R - 1/2)) with
    # M = modes and R = size / M
    tau = 2.0 * math.pi * _SPREAD_HALF_WIDTH / (size * (2.0 * size - modes))
    alpha = math.pi * (2.0 * size - modes) / (2.0 * size * _SPREAD_HALF_WIDTH)
    u = 0.5 * (_CHEB_NODES[:, None] + 1.0) - _SPREAD_OFFSETS
    poly = _CHEB_TO_MONO @ np.linalg.solve(_CHEB_VANDER, np.exp(-alpha * u * u))
    k = np.arange(n_modes)
    deconv = np.exp(k * k * tau)
    deconv *= math.sqrt(math.pi / tau) / size
    prunable = _PRUNE_MIN_CELLS <= size <= _PRUNE_MAX_CELLS
    widths = np.arange(1, size // _PRUNE_MIN_ROWS + 1 if prunable else 1)
    widths = widths[size % widths == 0]
    poly.flags.writeable = False
    deconv.flags.writeable = False
    widths.flags.writeable = False
    return _Kernel(size, alpha, poly, deconv, widths)


def _phase_sums(x: np.ndarray, a: np.ndarray, h: float, n_modes: int) -> np.ndarray:
    """sum_j a_j e^{-i k h x_j} for k = 0 .. n_modes-1, by NUFFT; a_j real.

    The modes are the upper half of the centred range [-n_modes, n_modes),
    on a periodic grid of ``size`` >= 4 n_modes cells. The cell position
    h x_j mod 2 pi of every sample is computed once: cell b_j and fraction
    u_j in [0, 1). A sample adds a_j e^{-alpha (u_j - o)^2} to cell b_j + o
    for the 2 half_width offsets o = 1 - half_width .. half_width. With the
    kernel's degree-P fit sum_p C[p, o] t^p in t = 2u - 1 (``_kernel``),
    all samples of one cell add sum_p C[p, o] M[b, p] to cell b + o, where
    M[b, p] = sum_{j in b} a_j t_j^p. So the samples enter only through
    P + 1 weighted ``bincount``s, and the kernel is evaluated once per
    occupied cell, not per sample. The moments are taken over the occupied
    cells only, compacted in order, so a sparse sample on a large grid needs
    no moment row per empty cell. Their product with C is taken by
    ``einsum`` in the calling thread, not by BLAS: for 3 360 occupied cells
    a BLAS product with its default two threads took from 0.08 ms on an idle
    host to 5 ms on a busy one, where its second thread waits for a core,
    against 0.5 to 0.7 ms for ``einsum``.

    The cells are spread into a buffer g that spans only the occupied arc:
    L cells from half_width - 1 cells below the lowest occupied cell to
    half_width cells above the highest, buffer cell e being periodic cell
    first + e. What is wanted is its DFT at the lowest n_modes <= size / 4
    frequencies, X[k] = sum_e g_e v^{k (first + e)} with v = e^{-2 pi i /
    size}, and the FFT is pruned to that (Markel, IEEE Trans. Audio
    Electroacoust. 19(4), 1971; Sorensen & Burrus, IEEE Trans. Signal
    Process. 41(3), 1993). Let M be the smallest divisor of size with
    M >= L, and R = size / M. Then for k = r + R q

        X[r + R q] = v^{r first} FFT_M(row_r)[q],
        row_r[(first + e) mod M] = g_e v^{r e},

    so R transforms of M cells replace one of size cells, and only the first
    and last ceil(n_modes / R) entries of each are used. g is real, so
    X[size - k] is conj X[k], which on the rows reads

        X[(R - r) + R q] = conj X[r + R (M - 1 - q)]:

    only rows 0 .. R/2 are transformed. Row 0 is g itself, rotated, and takes
    a real FFT; row R/2 of an even R is its own mirror. The twiddles
    v^{r e} have r e < size / 2 and are taken from one table per grid size
    (``_twiddles``). This costs O(size log M) against O(size log size).
    It was measured to save time only with R >= 16 rows on grids of 24 000
    cells or more, and above 2^17 cells the kept twiddle table would grow
    with the grid. So on grids of 24 000 to 2^17 cells M is the smallest
    divisor with M >= L that leaves at least 16 rows (``_Kernel.widths``),
    if there is one; otherwise M = size and R = 1, one real FFT of the
    folded grid. With 8 001 modes (32 400 cells) the 180 grid transforms of
    the slot totals of 30 ``table2`` replications (M/G/1, n = 10^4) all took
    rows of M = 144 to 300 cells, so R = 108 to 225; ``table2`` itself now
    inverts at T = 400 on 1 601 points (6 480 cells), which are not pruned.

    Row 0 is the buffer folded onto M cells in index space, buffer cell e
    adding to cell (first + e) mod M, so the buffer's offset needs no phase
    factor in that row. Multiplying mode k by the real e^{k^2 tau} undoes
    the kernel. For |k| < n_modes that factor stays below
    e^{pi half_width / 12}, about 66. When the phases cover the whole
    circle the buffer is at most size + 2 half_width cells long, so the
    fold (then R = 1) is at most 2 + ceil((2 half_width - 1) / size) slice
    adds and builds no index array: three on grids of 31 cells or more,
    four or five on the smaller grids of m <= 6 (12 to 30 cells). A pruned
    arc fits in M cells, so its fold is a rotation of at most two slices.
    Its R/2 complex rows of M cells and their FFT peak at about 2 x 8 size
    bytes, as the folded grid and its FFT do when R = 1.

    The phases are reduced modulo 2 pi only when the largest reaches 2 pi.
    They are nonnegative, and below 2 pi the reduction is the identity, so
    skipping it changes no bit.
    """
    if x.size == 0:
        return np.zeros(n_modes, dtype=complex)
    kernel = _kernel(n_modes)
    size = kernel.size
    u = h * x
    if u.max() >= 2.0 * math.pi:
        np.mod(u, 2.0 * math.pi, out=u)
    u *= size / (2.0 * math.pi)
    base = np.floor(u)
    u -= base
    t = 2.0 * u - 1.0
    low = int(base.min())
    cells = base.astype(np.intp) - low
    occupied = np.bincount(cells) > 0
    rows = np.cumsum(occupied) - 1
    n_rows = int(rows[-1]) + 1
    rows = rows[cells]
    moments = np.empty((_KERNEL_DEGREE + 1, n_rows))
    term = a.copy()
    for p in range(_KERNEL_DEGREE + 1):
        moments[p] = np.bincount(rows, term, n_rows)
        term *= t
    values = np.einsum("pb,po->ob", moments, kernel.poly)
    # occupied cell b covers buffer cells b + 0 .. 2 half_width - 1; buffer
    # cell e is periodic cell first + e
    first = low + _SPREAD_OFFSETS[0]
    length = occupied.size + _SPREAD_OFFSETS.size - 1
    index = np.arange(_SPREAD_OFFSETS.size)[:, None] + np.flatnonzero(occupied)
    spread = np.bincount(index.ravel(), values.ravel(), length)
    fits = np.searchsorted(kernel.widths, length)
    width = int(kernel.widths[fits]) if fits < kernel.widths.size else size
    folded = np.zeros(width)
    start, done = first % width, 0
    while done < length:
        stop = min(length, done + width - start)
        folded[start:start + stop - done] += spread[done:stop]
        start, done = 0, stop
    del spread  # before the FFT allocates, to keep peak memory down
    out = np.fft.rfft(folded)
    n_fft_rows = size // width
    if n_fft_rows > 1:
        # the arc fits in one row, so column j of row r holds buffer cell
        # e = (j - first) mod width, or 0, times e^{-2 pi i r e / size}
        cell = (np.arange(width) - first) % width
        r = np.arange(1, n_fft_rows // 2 + 1)
        fft_rows = _twiddles(size).take(r[:, None] * cell)
        fft_rows *= folded
        fft_rows = np.fft.fft(fft_rows)
        out = _interleave(out, fft_rows, first, size, n_modes)
    out = out[:n_modes]
    out *= kernel.deconv
    return out


def _interleave(row0: np.ndarray, rows: np.ndarray, first: int, size: int,
                n_modes: int) -> np.ndarray:
    """Modes k = r + R q, k < n_modes, of a pruned FFT with R rows, from
    the transforms of its rows (see ``_phase_sums``): ``row0`` the real FFT
    of row 0 and ``rows`` the FFTs of rows 1 .. R/2, of size / R cells each.

    Mode r + R q is e^{-2 pi i r first / size} times entry q of row r, and
    mode (R - r) + R q, for the rows above R/2, is the conjugate of mode
    r + R (width - 1 - q).
    """
    width = rows.shape[1]
    n_rows = size // width
    half = rows.shape[0] + 1
    per_row = -(-n_modes // n_rows)
    shift = np.exp((-2j * math.pi / size) * (np.arange(1, half) * first % size))
    out = np.empty((per_row, n_rows), dtype=complex)
    out[:, 0] = row0[:per_row]
    out[:, 1:half] = (rows[:, :per_row] * shift[:, None]).T
    mirror = n_rows - half
    out[:, half:] = (rows[:mirror][::-1, width - per_row:][:, ::-1]
                     * shift[:mirror][::-1, None]).T.conj()
    return out.ravel()


@functools.lru_cache(maxsize=_TWIDDLE_TABLES)
def _twiddles(size: int) -> np.ndarray:
    """e^{-2 pi i j / size} for j = 0 .. size // 2, read-only: every twiddle
    of a pruned FFT, 8 bytes per cell. Only grids of at most 2^17 cells are
    pruned, so the 2 tables kept take at most 2.1 MB."""
    table = np.exp((-2j * math.pi / size) * np.arange(size // 2 + 1))
    table.flags.writeable = False
    return table


def empirical_transform_grid(samples: SampleSet, grid: ContourGrid) -> TransformValues:
    """Empirical transform on the half grid y_k = k h, k = 0 .. m.

    The values are a type-1 non-uniform DFT of the nonzero samples with real
    weights e^{-c x}, evaluated by the real-weight NUFFT of ``_phase_sums``
    (see the module docstring); samples whose weight underflows to 0 are
    left out. Exact zeros (``x == 0.0``, the zeros of ``SampleSet``) add
    their fraction to every point, and the anchor y = 0 is the real mean of
    e^{-c x}. For samples of continuous laws the error against direct
    evaluation, one exponential per sample and point, stays below 1.5e-14
    absolute, independent of the grid size: the largest measured, 8.9e-15,
    is for samples of Exp(mean 0.05), whose phases all sit near 0. It is
    largest at the top modes, where the deconvolution factor is largest,
    and smallest near y = 0. Both this and the direct sum carry the
    rounding of each phase y x, about 1e-16 |y x| e^{-c x} per sample,
    which dominates for few samples far out: a lone sample at x = 10 with
    c = 0.1 differs by 2e-13 at y = 400. Tied samples are summed into one
    cell's moments one after another, so there the error grows with the
    number of ties: 1.1e-13 for 10^4 copies of 0.3 on the 8 001 points of
    T = 400, 1.15e-12 for 10^5 copies.
    """
    x = samples.values
    a = np.exp(-grid.c * x)
    # zeros are added exactly below; samples whose weight underflows add
    # nothing and could overflow h * x. One index and two takes cost about
    # a third of two boolean gathers.
    gridded = np.flatnonzero((x != 0.0) & (a > 0.0))
    values = _phase_sums(x.take(gridded), a.take(gridded), grid.spacing,
                         grid.n_points)
    values /= x.size
    values += samples.zero_fraction
    values[0] = a.mean()
    return TransformValues._adopt(grid, values)


# --------------------------------------------------------------------------
# Sample files
# --------------------------------------------------------------------------

def _parse_value(token: str, path: str, line: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise SampleFileError(path, line, f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise SampleFileError(path, line, f"non-finite value: {token!r}")
    if value < 0:
        raise SampleFileError(path, line, f"negative value: {token!r}")
    return value


def load_samples(path: str, column: str | None = None) -> SampleSet:
    """Read a sample file.

    Plain text by default: one nonnegative decimal per line, blank lines and
    lines starting with '#' ignored. With ``column`` given the file is read
    as CSV and that column is extracted. Negative, non-finite or unparseable
    entries raise SampleFileError carrying the line number. A value counts
    as zero only when it parses to exactly 0.0.
    """
    values: list[float] = []
    if column is None:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                text = raw.strip()
                if not text or text.startswith("#"):
                    continue
                values.append(_parse_value(text, path, lineno))
    else:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or column not in reader.fieldnames:
                raise SampleFileError(path, 1, f"no column named {column!r}")
            for row in reader:
                token = row.get(column)
                if token is None or token == "":
                    raise SampleFileError(path, reader.line_num, f"missing value in column {column!r}")
                values.append(_parse_value(token, path, reader.line_num))
    if not values:
        raise SampleFileError(path, 1, "file contains no samples")
    return SampleSet(np.asarray(values))


def save_samples(samples: SampleSet, path: str) -> None:
    """Write one value per line, full precision, loadable by load_samples."""
    with open(path, "w") as fh:
        for v in samples.values:
            fh.write(f"{float(v)!r}\n")
