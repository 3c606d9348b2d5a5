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
Rokhlin, SIAM J. Sci. Comput. 14, 1993) in O(n log n + n P + R W P +
K log K) for n samples in R runs of one cell, K grid points and a kernel
spread over W = 32 cells, instead of O(n K) products. The K modes
k = 0 .. K-1 are taken as the upper half of a centred range of 2K modes, so
the weights stay real and one real FFT over a periodic grid of at least 4K
cells gives every mode. The first term is the sort of the samples, the
last that FFT.

The kernel is never evaluated per sample. Within one cell each of its W
columns is a polynomial of degree P = 14 in the sample's position, fitted
once per grid size at Chebyshev nodes, as in FINUFFT's piecewise-polynomial
kernel evaluation (Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput.
41(5), 2019). So the samples of a cell enter only through their P + 1
weighted moments, and the kernel is applied once per run of them. The
transform is symmetric in the samples, so they are sorted once: the
samples of a cell are then neighbours, one run per turn of the phases
around the circle, and every run's moments are sums over a slice. Only
occupied cells get moments, and the spread covers only the arc of the
circle that the phases occupy, often a small part of it since h x is small
on a fine grid; the arc is folded onto the periodic grid by cell index, so
the FFT needs no phase factor.

The NUFFT has a sample side and a mode side. The sample side
(``_spread``) takes the sorted samples to their phases, runs, moments and
kernel product, and spreads them into a buffer over the occupied arc. The
mode side folds that buffer onto the periodic grid (``_fold``), takes one
real FFT and undoes the kernel (``_mode_values``). On the grid factor times
finer over the same [0, T] every phase is divided by factor, so unless the
phases were reduced modulo 2 pi each sample sits in the same cell at the
same fraction of a periodic grid of factor x size cells: the same buffer,
folded onto those cells, gives the finer grid's modes, mode k undone by
the kernel at k / factor. A grid transform's result keeps the folded
buffer, and log tracking (``logtrack``) refines from it by the mode side
alone: for 2 000 compound binomial totals at T = 45 on a 2-vCPU host,
0.04 ms on the 721 points of the grid 4 times finer, against 0.15 ms for
a fresh transform there and 0.13 ms for the 181 points of the coarse one.

For samples of continuous laws the error against direct evaluation stays
below 1.5e-14 absolute and does not grow with K: 8.9e-15 at most for
samples of Exp(mean 0.05), whose phases all sit near 0, and 3.3e-15 for
Exp(mean 1) and Gamma(20, 0.05), over five seeds of 2000 samples at 201 to
32 001 points. Tied samples fall into one cell, whose moments are summed
pairwise, so their rounding barely grows with the number of ties. Against
the exact e^{-s x} at T = 400 the error was 2.8e-14 for 2 000 copies of
x = 1 on 8 001 points, most of it the rounding of the phases y x. For
10^4, 10^5 and 10^6 copies of 0.3 it was 1.4e-14, 1.9e-14 and 1.7e-14 on
8 001 points, and 2.6e-14 for each on the 1 601 points that
``inversion.build_grid`` gives every estimate at T = 400; it stays below
5e-14. Summed one sample after another, as a weighted ``bincount`` does,
the same copies of 0.3 gave 1.1e-13, 1.15e-12 and 1.6e-11 on 8 001
points.

Off a grid, ``empirical_transform_eval`` sums one exponential per sample
and point, unless it is given a grid transform of the same samples that
kept its spread and the points lie on that grid's contour, as log
tracking's bisection midpoints do. It then runs the mode side at the
points' fractional modes, from the kept buffer (the type-3 step of
Barnett, Magland & af Klinteberg): P points cost P x L cosines and sines
over the buffer's L cells, not P x n exponentials, and keep the grid
transform's error bounds. For 2 000 compound binomial totals at T = 45
the buffer has 191 cells; at n = 10^5 and T = 316 it has 1 151, and 12
points took 0.4 to 0.6 ms, against 62 to 73 ms summed directly, on a
2-vCPU host.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .errors import ParameterError, SampleFileError

# Largest number of scalar exponential evaluations done in one vectorized
# block when evaluating a transform at many points directly.
_DIRECT_BLOCK = 1 << 22

# Below this exponent e^{-x} is still a normal double, so a direct term whose
# Re(s) x stays below it is never flushed to 0 (that happens near 745).
_EXP_NONZERO = 700.0

# Most points of a contour grid that the estimator builds, for inversion
# (``inversion.build_grid``) or to track a log on (``logtrack.track_log``),
# so a huge w or T cannot silently allocate gigabytes.
_MAX_GRID_POINTS = 5 * 10**6

# Gaussian-gridding NUFFT: each sample is spread over 2 * _SPREAD_HALF_WIDTH
# cells of a grid with at least _OVERSAMPLE cells per mode of the centred mode
# range, with the kernel width of Greengard & Lee. At half-width 16 the kernel
# truncation and aliasing errors sit below rounding (max error 6.2e-15 on
# 8 001 points for 2000 exponential samples of mean 0.05); half-width 12 gave
# 4e-13 and 8 gave 2e-9 on the same case.
_SPREAD_HALF_WIDTH = 16
_OVERSAMPLE = 2
_SPREAD_OFFSETS = np.arange(1 - _SPREAD_HALF_WIDTH, _SPREAD_HALF_WIDTH + 1)
# Samples whose kernel moments are formed at once (``_piece_moments``):
# their table of (P + 1) x 8 bytes each, 480 KiB, is built and summed per
# block.
_MOMENT_BLOCK = 4096
# Runs whose moments are multiplied by the kernel fit in one ``np.matmul``
# (``_spread``): (P + 1) x 2 half_width x 512 = 245 760 multiply-adds, under
# the 4 x 65 536 below which OpenBLAS keeps a product in the calling thread.
_PRODUCT_BLOCK = 512
# Degree P of the polynomial that replaces the kernel within one cell. Its
# monomial coefficients stay below 1 and degree 14 fits every column within
# 1e-15. Degree 12 fits as well but took the grid transform to 1.3e-14 of
# its 1.5e-14 bound; degree 10 fits only to 3.6e-14.
_KERNEL_DEGREE = 14
_CHEB_NODES = np.cos(math.pi * (np.arange(_KERNEL_DEGREE + 1) + 0.5)
                     / (_KERNEL_DEGREE + 1))


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
        Nonnegative finite reals, at least one, whose sum is finite too.

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
        with np.errstate(over="ignore"):
            mean = float(vals.mean())
        if not math.isfinite(mean):
            raise ParameterError("sample values must have a finite sum")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "n", int(vals.size))
        object.__setattr__(self, "mean", mean)
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
    its ordinates (8 bytes per point), points (16) and inversion plan, the
    trapezoid weights over the points (16): 40 bytes per point in all. The
    inversion's weight rows, 16 bytes per point and w, are kept by grid and
    w within 4 MiB in all (``inversion._kept_row``), not with the grid. The
    grid transform keeps the NUFFT kernel of each of the last 8 point
    counts it was called for (``_kernel``), 8 bytes per point each: up to
    320 MB at the cap of 5 * 10^6 points. A grid transform's result keeps,
    for refinement and for point evaluation off the grid, a reference to
    its samples and its folded spread, 8 bytes per cell of the kernel's
    grid of about 4 cells per point, so 32 bytes per point; both are freed
    with the result. Its values are their own array of 16 bytes per point,
    not a view of the FFT output of about twice that.
    """

    c: float
    t_max: float
    m: int

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ParameterError("contour abscissa c must be positive and finite")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ParameterError("truncation level t_max must be positive and finite")
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
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ParameterError("exponential rate must be positive and finite")

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
        # the sum of k draws is gamma(k, 1/rate), drawn as in Gamma; 0 at k = 0
        with np.errstate(over="ignore"):
            return rng.standard_gamma(counts) * (1.0 / self.rate)


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
        # a product that overflows is an infinite sum, which SampleSet refuses
        with np.errstate(over="ignore"):
            return counts.astype(float) * self.point


@dataclass(frozen=True)
class Gamma:
    """Gamma distribution, shape/scale parameterization."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0 and self.scale > 0
                and math.isfinite(self.shape) and math.isfinite(self.scale)):
            raise ParameterError("gamma shape and scale must be positive and finite")

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
        # rng.gamma's draw, the same product bit for bit; a shape or sum
        # that overflows is infinite, which SampleSet refuses
        with np.errstate(over="ignore"):
            return rng.standard_gamma(counts * self.shape) * self.scale


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


def empirical_transform_eval(samples: SampleSet, s,
                             grid_transform: _GridTransform | None = None):
    """Empirical Laplace transform (1/n) sum_i exp(-s x_i).

    ``s`` may be a complex scalar or an array with Re(s) >= 0; the result has
    modulus at most 1 and is conjugate-symmetric in s. A scalar is
    evaluated as an array of one point.

    ``grid_transform``, if given, is a result of ``empirical_transform_grid``
    for these same samples (ParameterError if it is of others). When it
    kept its spread and every point lies on its grid's contour segment
    c + iy, 0 <= y <= t_max, the points are summed from that spread
    (``_GridTransform._from_spread``): P points cost P x L cosines and
    sines over its L cells, about 180 for 2 000 samples at T = 45, and
    stay within the grid transform's error bounds. Otherwise the points
    are summed directly, one exponential per sample and point, in blocks
    of at most 2^22 terms, so P points cost P n exponentials. Samples
    whose factor e^{-Re(s) x_i} underflows add exactly 0. Nothing is kept
    between calls.
    """
    s = _require_right_half_plane(s)
    flat = s.ravel()
    out = None
    if grid_transform is not None:
        if getattr(grid_transform, "_samples", None) is not samples:
            raise ParameterError(
                "grid_transform must be a grid transform of the same samples")
        out = grid_transform._from_spread(flat)
    if out is None:
        x = samples.values
        largest = float(flat.real.max(initial=0.0)) * samples.max_value
        out = np.empty(flat.size, dtype=complex)
        rows = max(1, _DIRECT_BLOCK // x.size)
        for start in range(0, flat.size, rows):
            block = flat[start:start + rows, None]
            out[start:start + rows] = _exp_terms(block, x,
                                                 largest).mean(axis=1)
    return complex(out[0]) if s.ndim == 0 else out.reshape(s.shape)


def _fft_length(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: numpy's FFT is fastest on such lengths.
    scipy.fft.next_fast_len(n, real=True) agrees (every n <= 2 * 10^5), but
    importing scipy.fft costs about 1 MiB of resident memory."""
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

    ``size`` is the number of cells of the periodic grid, ``alpha`` the
    kernel exponent in cells squared and ``tau`` = pi^2 / (alpha size^2)
    the decay of its transform in modes squared. Column o of the
    (P + 1) x 32 ``poly`` holds the monomial coefficients in t = 2u - 1 of
    e^{-alpha (u - o)^2} for a sample at fraction u in [0, 1) of its cell.
    ``deconv`` takes the FFT of the spread grid to mode k,
    k = 0 .. n_modes-1 (``_deconvolution``).
    """

    size: int
    alpha: float
    tau: float
    poly: np.ndarray
    deconv: np.ndarray


def _deconvolution(size: int, tau: float, k: np.ndarray) -> np.ndarray:
    """sqrt(pi / tau) / size e^{k^2 tau} at the modes k of the kernel's
    grid, which need not be whole.

    Mode k, at k / size cycles per cell, is damped by the kernel's
    transform there, sqrt(pi / alpha) e^{-k^2 tau}, which this undoes.
    Mode j of a spread folded onto factor x size cells is mode j / factor
    of the kernel's grid.
    """
    out = np.exp(k * k * tau)
    out *= math.sqrt(math.pi / tau) / size
    return out


@functools.lru_cache(maxsize=8)
def _kernel(n_modes: int) -> _Kernel:
    """Greengard & Lee's Gaussian for ``n_modes`` upper modes, and its fit.

    All 32 columns are evaluated at the P + 1 Chebyshev nodes in one
    ``exp`` and interpolated there in monomials, by one solve with the
    nodes' Vandermonde matrix. Its condition number is 1.2e5, but the
    coefficients stay below 1, so the fit matches every column within
    1e-15 on [0, 1). The result is shared between calls and read-only.

    The last 8 kernels are kept. Each holds its ``deconv``, 8 bytes per
    mode, and its ``poly`` of 3.8 KB, so at the 5 * 10^6-point cap of a
    grid the 8 can keep 320 MB, beyond the 40 bytes per point of each kept
    grid (``ContourGrid``).
    """
    modes = 2 * n_modes
    size = _fft_length(_OVERSAMPLE * modes)
    # Greengard & Lee's tau = pi half_width / (M^2 R (R - 1/2)) with
    # M = modes and R = size / M
    tau = 2.0 * math.pi * _SPREAD_HALF_WIDTH / (size * (2.0 * size - modes))
    alpha = math.pi * (2.0 * size - modes) / (2.0 * size * _SPREAD_HALF_WIDTH)
    u = 0.5 * (_CHEB_NODES[:, None] + 1.0) - _SPREAD_OFFSETS
    poly = np.linalg.solve(np.vander(_CHEB_NODES, _KERNEL_DEGREE + 1,
                                     increasing=True), np.exp(-alpha * u * u))
    deconv = _deconvolution(size, tau, np.arange(n_modes))
    poly.flags.writeable = False
    deconv.flags.writeable = False
    return _Kernel(size, alpha, tau, poly, deconv)


def _piece_moments(a: np.ndarray, t: np.ndarray,
                   pieces: np.ndarray) -> np.ndarray:
    """M[p, r] = sum_j a_j t_j^p for p = 0 .. P over each piece r of the
    samples, which starts at pieces[r] and ends where the next one starts.

    No piece may span a multiple of _MOMENT_BLOCK: a block's table of
    a t^p is built and summed before the next one's, so it takes
    (P + 1) x 8 _MOMENT_BLOCK bytes whatever the sample size. Row p + 1 of
    the table is row p times t, and one ``np.add.reduceat`` sums each piece
    of every row pairwise. Samples that fit in one block skip the
    bookkeeping of the blocks.
    """
    table = np.empty((_KERNEL_DEGREE + 1, min(a.size, _MOMENT_BLOCK)))
    if a.size <= _MOMENT_BLOCK:
        return np.add.reduceat(_powers(a, t, table), pieces, axis=1)
    moments = np.empty((_KERNEL_DEGREE + 1, pieces.size))
    block_starts = range(0, a.size, _MOMENT_BLOCK)
    ends = [*pieces.searchsorted(block_starts[1:]).tolist(), pieces.size]
    done = 0
    for lo, end in zip(block_starts, ends):
        hi = min(a.size, lo + _MOMENT_BLOCK)
        np.add.reduceat(_powers(a[lo:hi], t[lo:hi], table[:, :hi - lo]),
                        pieces[done:end] - lo, axis=1,
                        out=moments[:, done:end])
        done = end
    return moments


def _powers(a: np.ndarray, t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``rows`` filled with a t^p, p = 0 .. P, row p + 1 row p times t."""
    rows[0] = a
    for p in range(_KERNEL_DEGREE):
        np.multiply(rows[p], t, out=rows[p + 1])
    return rows


def _spread(x: np.ndarray, a: np.ndarray, h: float,
            kernel: _Kernel) -> tuple[np.ndarray, int, bool]:
    """The sample side of the NUFFT of sum_j a_j e^{-i k h x_j}, a_j real:
    the spread buffer g over the occupied arc, the periodic cell of its
    first cell, and whether the phases were reduced modulo 2 pi.

    ``x`` holds positive values in ascending order, and ``a`` their
    positive weights. The cell position h x_j mod 2 pi of every sample on
    the kernel's ``size`` cells is computed once: cell b_j and fraction u_j
    in [0, 1). A sample adds a_j e^{-alpha (u_j - o)^2} to cell b_j + o for
    the 2 half_width offsets o = 1 - half_width .. half_width. With the
    kernel's degree-P fit sum_p C[p, o] t^p in t = 2u - 1 (``_kernel``),
    the samples of one run, neighbours in one cell b, add
    sum_p C[p, o] M[r, p] to cell b + o, where M[r, p] = sum_{j in r}
    a_j t_j^p. Sorted values give each cell one run per turn of the
    phases, the runs being found by one comparison of neighbours, and
    ``_piece_moments`` sums every run's P + 1 moments pairwise from a table
    of a t^p built in blocks of _MOMENT_BLOCK samples; a run cut by a block
    boundary gets its pieces' moments summed pairwise too. So the kernel is
    evaluated once per run, not per sample, and a sparse sample on a large
    grid needs no moment row per empty cell.

    The product of the moments with C is one ``np.matmul`` per block of
    _PRODUCT_BLOCK runs, each under the size below which OpenBLAS keeps a
    product in the calling thread. For 3 360 runs on a 2-vCPU host, with
    and without a busy loop on the other vCPU, ``einsum`` took 440 to
    540 us in the median and the blocks 55 to 60 us, with a 95th
    percentile of 62 to 98 us over 1 000 calls. One unblocked ``matmul``,
    which OpenBLAS splits over two threads, took 47 to 58 us in the
    median, but its 95th percentile reached 16 ms in one run of 300 calls,
    its second thread waiting for a core.

    The runs are spread into a buffer g that spans only the occupied arc:
    L cells from half_width - 1 cells below the lowest occupied cell to
    half_width cells above the highest, buffer cell e being periodic cell
    first + e. Runs of one cell from different turns add there.

    The phases are reduced modulo 2 pi only when the largest, the last,
    reaches 2 pi. They are nonnegative, and below 2 pi the reduction is the
    identity, so skipping it changes no bit. Unreduced, the phases of the
    grid factor times finer are these divided by factor, so the same buffer
    serves it (``_GridTransform.on_grid``).
    """
    if x.size == 0:
        return np.zeros(0), 0, False
    u = h * x
    turned = bool(u[-1] >= 2.0 * math.pi)
    if turned:
        np.mod(u, 2.0 * math.pi, out=u)
    u *= kernel.size / (2.0 * math.pi)
    # u >= 0, so truncation is the floor
    cells = u.astype(np.intp)
    u -= cells
    u *= 2.0
    u -= 1.0
    t = u
    # a run is a stretch of neighbours in one cell
    new_run = np.empty(x.size, dtype=bool)
    new_run[0] = True
    np.not_equal(cells[1:], cells[:-1], out=new_run[1:])
    starts = new_run.nonzero()[0]
    run_cells = cells[starts]
    del cells
    # blocks cut the runs into pieces, whose moments are summed pairwise too
    pieces = starts
    if x.size > _MOMENT_BLOCK:
        new_run[::_MOMENT_BLOCK] = True
        pieces = new_run.nonzero()[0]
    del new_run
    moments = _piece_moments(a, t, pieces)
    if pieces.size > starts.size:
        moments = np.add.reduceat(moments, pieces.searchsorted(starts), axis=1)
    values = np.empty((starts.size, _SPREAD_OFFSETS.size))
    for lo in range(0, starts.size, _PRODUCT_BLOCK):
        np.matmul(moments.T[lo:lo + _PRODUCT_BLOCK], kernel.poly,
                  out=values[lo:lo + _PRODUCT_BLOCK])
    # the run in cell b adds to buffer cells b - first + o; buffer cell e is
    # periodic cell first + e
    low = int(run_cells.min())
    first = low + int(_SPREAD_OFFSETS[0])
    length = int(run_cells.max()) - low + _SPREAD_OFFSETS.size
    index = (run_cells - first)[:, None] + _SPREAD_OFFSETS
    return np.bincount(index.ravel(), values.ravel(), length), first, turned


def _fold(spread: np.ndarray, first: int, cells: int) -> np.ndarray:
    """The spread buffer folded onto ``cells`` periodic cells, buffer cell
    e adding to cell (first + e) mod cells.

    In index space, so no phase factor is needed: a buffer of at most
    cells + 2 half_width - 1 cells takes at most
    2 + ceil((2 half_width - 1) / cells) slice adds and no index array,
    three on grids of 31 cells or more, four or five on the smaller grids
    of m <= 6 (12 to 30 cells).
    """
    folded = np.zeros(cells)
    start, done = first % cells, 0
    while done < spread.size:
        stop = min(spread.size, done + cells - start)
        folded[start:start + stop - done] += spread[done:stop]
        start, done = 0, stop
    return folded


class _Folded(NamedTuple):
    """A grid transform's spread buffer of ``length`` cells, folded onto
    the ``kernel``'s grid from periodic cell ``first`` on, kept where no two
    of its cells share a folded cell, so the buffer is a rotation of
    ``cells``.

    The folded grid is kept rather than the buffer because the FFT needs
    it anyway: the transform's peak stays at about 2 x 8 bytes per cell.
    Keeping the buffer too took two samples at opposite ends of the circle
    on 10^6 points from 2.0 to 2.98 x 8 bytes per cell.
    """

    cells: np.ndarray
    first: int
    length: int
    kernel: _Kernel


def _mode_values(sums: np.ndarray, deconv: np.ndarray, samples: SampleSet,
                 anchor: float | None = None) -> np.ndarray:
    """The mode side's last step for grid values, refined grid values and
    point sums: the NUFFT's sum over the nonzero samples at each mode k,
    times the kernel's deconv[k], over n, plus the zeros' fraction; y = 0
    takes ``anchor``, the real mean of e^{-c x}, when one is given.

    A grid's sums are the lowest n_modes frequencies of one real FFT of its
    folded spread of at least 4 n_modes cells, where e^{k^2 tau} stays
    below about 66. The folded grid and its FFT peak at about 2 x 8 bytes
    per cell, and the values, a fresh array rather than a view that would
    keep the whole FFT alive, add 4: at 1 601 points 25 616 bytes, not 51 856.
    """
    values = sums * deconv
    values /= samples.n
    values += samples.zero_fraction
    if anchor is not None:
        values[0] = anchor
    return values


class _GridTransform(TransformValues):
    """The empirical transform on a grid, which can also give the same
    transform on the grids refined from its own (``on_grid``) and at points
    of its contour between its grid points (``_from_spread``, through
    ``empirical_transform_eval``).

    Besides its values it keeps a reference to its samples and, unless its
    phases were reduced modulo 2 pi or its spread buffer wraps onto itself,
    the folded spread (``_Folded``): 8 bytes per cell of the kernel's grid,
    about 32 per point. Both are freed with the result.
    """

    @classmethod
    def _of(cls, grid: ContourGrid, values: np.ndarray, samples: SampleSet,
            folded: _Folded | None) -> _GridTransform:
        out = cls._adopt(grid, values)
        object.__setattr__(out, "_samples", samples)
        object.__setattr__(out, "_folded", folded)
        return out

    def on_grid(self, grid: ContourGrid) -> np.ndarray:
        """The same transform's values at the points of ``grid``.

        On the grid factor times finer over the same [0, t_max], when the
        folded spread was kept, only the mode side runs: sample j has phase
        h x_j / factor there, so it sits in the same cell at the same
        fraction of a grid of factor x size cells, and the spread buffer,
        unfolded from the kept rotation, is folded onto those cells and
        transformed by one real FFT, mode k being undone by the kernel at
        k / factor. The values match a fresh transform's to rounding. Any
        other grid gets a fresh ``empirical_transform_grid``.
        """
        own, folded = self.grid, self._folded
        factor = grid.m // own.m
        if (folded is None or grid.c != own.c or grid.t_max != own.t_max
                or grid.m != factor * own.m):
            return empirical_transform_grid(self._samples, grid).values
        size = folded.kernel.size
        sums = np.fft.rfft(_fold(self._spread_buffer(), folded.first,
                                 factor * size))[:grid.n_points]
        return _mode_values(sums, _deconvolution(
            size, folded.kernel.tau, np.arange(grid.n_points) / factor),
            self._samples, self.values[0].real)

    def _spread_buffer(self) -> np.ndarray:
        """The kept spread buffer, unfolded from its rotation."""
        folded = self._folded
        start = folded.first % folded.kernel.size
        return np.concatenate((folded.cells[start:],
                               folded.cells[:start]))[:folded.length]

    def _from_spread(self, s: np.ndarray) -> np.ndarray | None:
        """The transform at the points ``s`` from the kept spread, or None
        when it was not kept or a point is off the grid's own contour
        segment c + iy, 0 <= y <= t_max.

        This is the NUFFT's mode side at the fractional modes k = y / h of
        the kernel's grid (the type-3 step of Barnett, Magland & af
        Klinteberg): with g the spread buffer, buffer cell e at periodic
        cell first + e,

            f(s) = zero_fraction
                   + (1/n) D(k) sum_e g[e] e^{-2 pi i k (first + e) / size}

        and D the kernel's deconvolution at k (``_deconvolution``). The
        phases are never reduced modulo 2 pi, so cell first + e is where
        the samples were spread, and the sum over the buffer carries the
        same kernel error as a whole mode. Writing k = K + d with K the
        nearest integer, K (first + e) is reduced modulo size exactly in
        integers, so only the part |d| <= 1/2 is rounded. At T = 400,
        phases k (first + e) formed whole were off the direct sum by
        2.6e-14 for samples of Exp(mean 0.05) and by 8.6e-14 for tied
        samples, against 7.4e-15 and 1.5e-14 reduced. Each point's terms are summed
        pairwise along its own row, so its value does not depend on the
        other points of the call. P points cost P x L cosines and sines, in
        blocks of at most 2^22 terms, where direct sums cost P x n
        exponentials.
        """
        grid, folded = self.grid, self._folded
        y = s.imag
        if folded is None or not ((s.real == grid.c).all()
                                  and 0.0 <= y.min(initial=0.0)
                                  and y.max(initial=0.0) <= grid.t_max):
            return None
        size = folded.kernel.size
        spread = self._spread_buffer()
        cells = np.arange(folded.first, folded.first + folded.length)
        k = y / grid.spacing
        whole = np.rint(k)
        out = np.empty(s.size, dtype=complex)
        re, im = out.real, out.imag
        rows = max(1, _DIRECT_BLOCK // max(1, cells.size))
        for lo in range(0, s.size, rows):
            hi = lo + rows
            phases = np.multiply.outer(k[lo:hi] - whole[lo:hi], cells)
            phases += np.multiply.outer(whole[lo:hi].astype(np.intp),
                                        cells) % size
            phases *= -2.0 * math.pi / size
            terms = np.cos(phases)
            terms *= spread
            terms.sum(axis=1, out=re[lo:hi])
            np.sin(phases, out=terms)
            terms *= spread
            terms.sum(axis=1, out=im[lo:hi])
        return _mode_values(out, _deconvolution(size, folded.kernel.tau, k),
                            self._samples)


def empirical_transform_grid(samples: SampleSet, grid: ContourGrid) -> TransformValues:
    """Empirical transform on the half grid y_k = k h, k = 0 .. m.

    The values are a type-1 non-uniform DFT of the nonzero samples with real
    weights e^{-c x}, evaluated by the real-weight NUFFT of ``_spread``,
    ``_fold`` and ``_mode_values`` (see the module docstring) on the values
    sorted once: exact zeros (``x == 0.0``, the zeros of ``SampleSet``) are
    then a leading slice, and samples whose weight underflows to 0 a
    trailing one, both left out. The zeros add their fraction to every
    point, and the anchor y = 0 is the real mean of e^{-c x}. Everything is
    computed from the sorted values, so the order of the samples changes no
    bit. For samples of continuous laws the error against direct
    evaluation, one exponential per sample and point, stays below 1.5e-14
    absolute, independent of the grid size: the largest measured, 8.9e-15,
    is for samples of Exp(mean 0.05), whose phases all sit near 0. It is
    largest at the top modes, where the deconvolution factor is largest,
    and smallest near y = 0. Both this and the direct sum carry the
    rounding of each phase y x, about 1e-16 |y x| e^{-c x} per sample,
    which dominates for few samples far out: a lone sample at x = 10 with
    c = 0.1 differs by 2e-13 at y = 400. Tied samples are one run, whose
    moments are summed pairwise: 1.4e-14 to 1.9e-14 for 10^4 to 10^6
    copies of 0.3 on 8 001 points at T = 400, and 2.6e-14 on the 1 601
    points of ``build_grid`` there.

    The result's ``on_grid`` gives the transform on a grid refined from
    this one from the spread kept here, without sorting or spreading the
    samples again, and ``empirical_transform_eval`` given the result sums
    points of its contour from that spread too.
    """
    x = np.sort(samples.values)
    a = np.exp(-grid.c * x)
    # zeros lead and are added exactly below; underflowed weights trail,
    # add nothing and could overflow h * x
    gridded = slice(x.searchsorted(0.0, side="right"), np.count_nonzero(a))
    kernel = _kernel(grid.n_points)
    spread, first, turned = _spread(x[gridded], a[gridded], grid.spacing,
                                    kernel)
    length = spread.size
    folded = _fold(spread, first, kernel.size)
    del spread  # before the FFT allocates, to keep peak memory down
    values = _mode_values(np.fft.rfft(folded)[:grid.n_points], kernel.deconv,
                          samples, a.sum() / x.size)
    kept = (None if turned or length > kernel.size
            else _Folded(folded, first, length, kernel))
    return _GridTransform._of(grid, values, samples, kept)


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
