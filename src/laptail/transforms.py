"""Laplace transforms on the Bromwich contour.

Empirical transforms of nonnegative samples, closed-form transforms of a few
analytic models used as oracles and simulators, and the sample file format.
All transforms are evaluated on the closed right half-plane Re(s) >= 0 only.
They are transforms of real measures, so psi(c - iy) = conj psi(c + iy) and
a contour grid covers only y >= 0: the half grid s_k = c + i k h for
k = 0 .. m, with t_max = m h.

On that grid the empirical transform is a type-1 non-uniform DFT,
(1/n) sum_j a_j e^{-i k theta_j} with real weights a_j = e^{-c x_j} and
phases theta_j = h x_j. ``empirical_transform_grid`` evaluates it with a
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
around the circle, and every run's moments are pairwise sums over a
slice, from one table of all P + 1 powers of the weighted samples for at
most 4 096 samples and one power at a time for more. Only occupied cells
get moments, and each run adds only to the W cells around its own, placed
on the periodic grid by cell index, so the FFT needs no phase factor.

The NUFFT has a sample side and a mode side. The sample side
(``_spread``) takes the sorted samples to their phases, runs, moments and
kernel product: each run's cell, counted over all turns of the phases,
and its W kernel values. The mode
side places the runs on the periodic grid (``_fold``), takes one real FFT
and undoes the kernel (``_mode_values``). On the grid factor times finer
over the same [0, T] every phase is divided by factor, so each sample sits
in the same cell at the same fraction of a periodic grid of factor x size
cells: the same runs, folded onto those cells, give the finer grid's
modes, mode k undone by the kernel at k / factor. A grid transform's
result keeps the runs, 264 bytes each, and its ``refined(factor)``, which
log tracking (``logtrack``) calls, runs the mode side alone. The finer
grid, its points and that deconvolution depend on the grid alone, so they
are built once per grid and factor and shared by every transform on it
(``_refined_grid``). For 2 000 compound binomial totals at T = 45 on a
2-vCPU host ``refined(4)`` took 0.05 ms on the 721 points of the grid 4
times finer, 0.07 ms with that grid and its points built anew, against
0.14 ms for a fresh transform there and 0.12 ms for the 181 points of the
coarse one.

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

A sample past its first turn has its whole turns taken off its phase h x
exactly (``np.divmod``) before its cell and fraction are formed, so they
carry the rounding of the reduced phase alone. Samples over 199 turns at
c = 0.01 were within 1.8e-15 of the direct sums at T = 45; at T = 400, on
1 601 points, within 1.4e-14 of sums formed in extended precision, and
over 50 turns within 2.4e-14 (direct sums: 1.1e-14 and 2.8e-14). At c = 1,
as in every estimate, a sample past its first turn on a grid of step 1/4
weighs less than 1.2e-11.

Off a grid, ``empirical_transform_eval`` sums one exponential per sample
and point, unless it is given a grid transform of the same samples whose
runs span at most one turn of its periodic grid and the points lie on
that grid's contour, as log tracking's bisection midpoints do. It then
runs the mode side at the points' fractional modes, from the runs spread
into a buffer over their arc (the type-3 step of Barnett, Magland & af
Klinteberg): P points cost P x L cosines and sines over the buffer's L
cells, not P x n exponentials, and keep the grid transform's error
bounds. For 2 000 compound binomial totals at T = 45 the buffer has 191
cells; at n = 10^5 and T = 316 it has 1 151, and 12 points took 0.5 ms,
against 55 ms summed directly, on a 2-vCPU host.
"""
from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

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
# Most samples whose kernel moments are summed from one table of all P + 1
# powers (``_run_moments``): for 842 to 3 378 samples ``_spread`` took 58 to
# 132 us, 9 to 20% less than with one row summed power after power. Above
# it the row is faster: 126 us for 8 385 samples, against 160 us from one
# table and 180 us from tables of 4 096 samples at a time (2-vCPU host).
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
    out the same grid for equal arguments, and its docstring states the
    memory kept for grids between calls.
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
    def points(self) -> np.ndarray:
        """Complex grid points c + i*y (read-only, computed once)."""
        pts = self.c + 1j * np.linspace(0.0, self.t_max, self.m + 1)
        pts.flags.writeable = False
        return pts


@dataclass(frozen=True, eq=False)
class TransformValues:
    """Values on a contour grid, one per point: a transform, the tracked
    log of one, or a mapped transform. The values are a read-only copy of
    those given, so they share no memory with the caller's array."""

    grid: ContourGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=complex)
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
        # its only use: loaded with the package it doubles start-up time
        from scipy.special import gammainc

        w = np.asarray(w, dtype=float)
        return gammainc(self.shape, np.maximum(w, 0.0) / self.scale)

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
    for these same samples (ParameterError if it is of others). When its
    runs span at most one turn of its periodic grid and every point lies on
    its grid's contour segment c + iy, 0 <= y <= t_max, the points are
    summed from those runs (``_GridTransform._from_spread``): P points cost
    P x L cosines and sines over the L cells of their arc, about 190 for
    2 000 samples at T = 45, and stay within the grid transform's error
    bounds. Otherwise the points
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

    The last 8 kernels are kept, each with its ``deconv``, 8 bytes per
    mode, and its ``poly`` of 3.8 KB (budgeted in ``inversion.build_grid``).
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


def _run_moments(a: np.ndarray, t: np.ndarray,
                 starts: np.ndarray) -> np.ndarray:
    """M[p, r] = sum_j a_j t_j^p for p = 0 .. P over each run r of the
    samples, which starts at starts[r] and ends where the next one starts.

    Each power a t^p is the one before times t, and one ``np.add.reduceat``
    sums it pairwise over every run. At most _MOMENT_BLOCK samples get a
    table of all P + 1 powers summed at once; more get one row of n powers
    summed power after power, so no table of (P + 1) x 8 n bytes is built.
    Both give the same bits.
    """
    if a.size <= _MOMENT_BLOCK:
        table = np.empty((_KERNEL_DEGREE + 1, a.size))
        table[0] = a
        for p in range(_KERNEL_DEGREE):
            np.multiply(table[p], t, out=table[p + 1])
        return np.add.reduceat(table, starts, axis=1)
    moments = np.empty((_KERNEL_DEGREE + 1, starts.size))
    np.add.reduceat(a, starts, out=moments[0])
    row = a * t
    np.add.reduceat(row, starts, out=moments[1])
    for moment in moments[2:]:
        row *= t
        np.add.reduceat(row, starts, out=moment)
    return moments


def _spread(x: np.ndarray, a: np.ndarray, h: float,
            kernel: _Kernel) -> tuple[np.ndarray, np.ndarray]:
    """The sample side of the NUFFT of sum_j a_j e^{-i k h x_j}, a_j real:
    the cell of each run of samples, ascending, and the run's values on
    the 2 half_width cells around it (runs x 32).

    ``x`` holds positive values in ascending order, and ``a`` their
    positive weights. Every sample's phase h x_j is placed once on a grid
    of the kernel's ``size`` cells per turn: cell b_j and fraction u_j in
    [0, 1). A sample adds a_j e^{-alpha (u_j - o)^2} to cell b_j + o for
    the 2 half_width offsets o = 1 - half_width .. half_width. With the
    kernel's degree-P fit sum_p C[p, o] t^p in t = 2u - 1 (``_kernel``),
    the samples of one run, neighbours in one cell b, add
    sum_p C[p, o] M[r, p] to cell b + o, where M[r, p] = sum_{j in r}
    a_j t_j^p. Sorted values give each cell one run per turn of the
    phases, the runs being found by one comparison of neighbours, and
    ``_run_moments`` sums every run's P + 1 moments pairwise. So the kernel
    is evaluated once per run, not per sample, and a sparse sample on a
    large grid needs no moment row per empty cell.

    The product of the moments with C is one ``np.matmul`` per block of
    _PRODUCT_BLOCK runs, each under the size below which OpenBLAS keeps a
    product in the calling thread. For 3 360 runs on a 2-vCPU host, with
    and without a busy loop on the other vCPU, ``einsum`` took 440 to
    540 us in the median and the blocks 55 to 60 us, with a 95th
    percentile of 62 to 98 us over 1 000 calls. One unblocked ``matmul``,
    which OpenBLAS splits over two threads, took 47 to 58 us in the
    median, but its 95th percentile reached 16 ms in one run of 300 calls,
    its second thread waiting for a core.

    Cell b_j counts the whole turns of the phase too, so the cells ascend
    with x and the runs of one cell on different turns stay apart, and
    ``_fold`` places the runs on a periodic grid of any number of cells.
    The samples past their first turn, a suffix found only when the largest
    phase reaches 2 pi, have their whole turns taken off exactly by
    ``np.divmod`` first, so their fraction carries the rounding of the
    reduced phase alone. On the grid factor times finer every phase is
    divided by factor and the periodic grid has factor x size cells, so
    each sample keeps its cell and fraction and the same runs serve it
    (``_GridTransform.refined``).
    """
    turn = 2.0 * math.pi
    u = h * x
    past = u.searchsorted(turn) if u.size and u[-1] >= turn else u.size
    if past < u.size:
        turns, u[past:] = np.divmod(u[past:], turn)
    u *= kernel.size / turn
    # u >= 0, so truncation is the floor
    cells = u.astype(np.intp)
    u -= cells
    if past < u.size:
        cells[past:] += turns.astype(np.intp) * kernel.size
    u *= 2.0
    u -= 1.0
    t = u
    # a run is a stretch of neighbours in one cell
    new_run = np.empty(x.size, dtype=bool)
    new_run[:1] = True
    np.not_equal(cells[1:], cells[:-1], out=new_run[1:])
    starts = new_run.nonzero()[0]
    run_cells = cells[starts]
    del cells, new_run
    moments = _run_moments(a, t, starts)
    values = np.empty((starts.size, _SPREAD_OFFSETS.size))
    for lo in range(0, starts.size, _PRODUCT_BLOCK):
        np.matmul(moments.T[lo:lo + _PRODUCT_BLOCK], kernel.poly,
                  out=values[lo:lo + _PRODUCT_BLOCK])
    return run_cells, values


def _fold(run_cells: np.ndarray, values: np.ndarray, cells: int) -> np.ndarray:
    """The runs of ``_spread`` summed onto ``cells`` periodic cells, the run
    in cell b adding values[r, o] to cell (b + o) mod cells.

    Each run's cell is reduced modulo ``cells`` once, not each of its 32
    values, and one weighted ``bincount`` spreads the runs over cells + 31
    cells, from periodic cell 1 - half_width on. The ends that stick out
    are then folded in index space, so no phase factor is needed: at most
    2 + ceil((2 half_width - 1) / cells) slice adds, three on grids of 31
    cells or more, four or five on the smaller grids of m <= 6 (12 to 30
    cells).
    """
    index = (run_cells % cells - _SPREAD_OFFSETS[0])[:, None] + _SPREAD_OFFSETS
    spread = np.bincount(index.ravel(), values.ravel(),
                         cells + _SPREAD_OFFSETS.size - 1)
    folded = np.zeros(cells)
    start, done = int(_SPREAD_OFFSETS[0]) % cells, 0
    while done < spread.size:
        stop = min(spread.size, done + cells - start)
        folded[start:start + stop - done] += spread[done:stop]
        start, done = 0, stop
    return folded


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


@functools.lru_cache(maxsize=2)
def _refined_grid(c: float, t_max: float, m: int,
                  factor: int) -> tuple[ContourGrid, np.ndarray]:
    """ContourGrid(c, t_max, factor m) and the read-only deconvolution of
    its modes, mode k undone by the kernel of the grid of m intervals at
    k / factor (``_GridTransform.refined``).

    Both depend on the grid alone, so every grid transform on it shares
    them, and the finer grid's points, built on first use, with them. The
    last 2 are kept: one serves every estimate that refines on one grid.
    Each takes 24 bytes per point of the finer grid once its points are
    built (budgeted in ``inversion.build_grid``).
    """
    fine = ContourGrid(c, t_max, factor * m)
    kernel = _kernel(m + 1)
    deconv = _deconvolution(kernel.size, kernel.tau,
                            np.arange(fine.n_points) / factor)
    deconv.flags.writeable = False
    return fine, deconv


@dataclass(frozen=True, eq=False)
class _GridTransform(TransformValues):
    """The empirical transform on a grid, which can also give the same
    transform on the grids ``refined`` from its own and at points of its
    contour between its grid points (``_from_spread``, through
    ``empirical_transform_eval``).

    Besides its values it keeps its samples, its kernel and the sample
    side's output (``_spread``): every run's cell and its 32 values, 264
    bytes per run, at most one run per sample. All are freed with it.
    """

    _samples: SampleSet
    _kernel: _Kernel
    _run_cells: np.ndarray
    _run_values: np.ndarray

    def refined(self, factor: int) -> TransformValues:
        """The same transform on ContourGrid(c, t_max, factor m), the grid
        factor times finer over the same [0, t_max].

        Only the mode side runs: sample j has phase h x_j / factor there,
        so it sits in the same cell at the same fraction of a grid of
        factor x size cells, and the kept runs, folded onto those cells,
        are transformed by one real FFT, mode k being undone by the kernel
        at k / factor. The finer grid and that deconvolution are shared by
        every transform on this grid (``_refined_grid``), and the fold is
        this transform's own: for 2 000 samples at T = 45 on a 2-vCPU host,
        refined(4) took 0.05 ms on 721 points. The values match a fresh
        transform's to rounding.
        """
        grid = self.grid
        fine, deconv = _refined_grid(grid.c, grid.t_max, grid.m, factor)
        sums = np.fft.rfft(_fold(self._run_cells, self._run_values,
                                 factor * self._kernel.size))[:fine.n_points]
        return TransformValues(fine, _mode_values(
            sums, deconv, self._samples, self.values[0].real))

    def _from_spread(self, s: np.ndarray) -> np.ndarray | None:
        """The transform at the points ``s`` from the kept runs, or None
        when a point is off the grid's own contour segment c + iy,
        0 <= y <= t_max, or when the runs' arc spans more cells than the
        kernel's grid, so that no point costs more than one turn's cells.

        The arc, the spread buffer g of the runs, has L cells: from
        half_width - 1 cells below the lowest run to half_width cells above
        the highest, buffer cell e at unreduced cell first + e. This is the
        NUFFT's mode side at the fractional modes k = y / h of the kernel's
        grid (the type-3 step of Barnett, Magland & af Klinteberg):

            f(s) = zero_fraction
                   + (1/n) D(k) sum_e g[e] e^{-2 pi i k (first + e) / size}

        and D the kernel's deconvolution at k (``_deconvolution``). The
        cells count the whole turns, so cell first + e is where
        the samples were spread, and the sum over the buffer carries the
        same kernel error as a whole mode. Writing k = K + d with K the
        nearest integer, K (first + e) is reduced modulo size exactly in
        integers, so only the part |d| <= 1/2 is rounded. At T = 400,
        phases k (first + e) formed whole were off the direct sum by
        2.6e-14 for samples of Exp(mean 0.05) and by 8.6e-14 for tied
        samples, against 7.4e-15 and 1.5e-14 reduced. Each point's terms
        are summed pairwise along its own row, so its value does not depend
        on the other points of the call. P points cost P x L cosines and
        sines, in blocks of at most 2^22 terms, where direct sums cost
        P x n exponentials.
        """
        grid, runs, size = self.grid, self._run_cells, self._kernel.size
        low, high = (int(runs[0]), int(runs[-1])) if runs.size else (0, 0)
        first = low + int(_SPREAD_OFFSETS[0])
        length = high - low + _SPREAD_OFFSETS.size
        y = s.imag
        if length > size or not ((s.real == grid.c).all()
                                 and 0.0 <= y.min(initial=0.0)
                                 and y.max(initial=0.0) <= grid.t_max):
            return None
        spread = _fold(runs - first, self._run_values, length)
        cells = np.arange(first, first + length)
        k = y / grid.spacing
        whole = np.rint(k)
        out = np.empty(s.size, dtype=complex)
        re, im = out.real, out.imag
        rows = max(1, _DIRECT_BLOCK // length)
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
        return _mode_values(out, _deconvolution(size, self._kernel.tau, k),
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

    The result keeps the runs of the spread, so its ``refined(factor)``, and
    ``empirical_transform_eval`` given it, sort and spread no sample again.
    """
    x = np.sort(samples.values)
    a = np.exp(-grid.c * x)
    # zeros lead and are added exactly below; underflowed weights trail,
    # add nothing and could overflow h * x
    gridded = slice(x.searchsorted(0.0, side="right"), np.count_nonzero(a))
    kernel = _kernel(grid.n_points)
    run_cells, run_values = _spread(x[gridded], a[gridded], grid.spacing,
                                    kernel)
    sums = np.fft.rfft(_fold(run_cells, run_values, kernel.size))
    values = _mode_values(sums[:grid.n_points], kernel.deconv, samples,
                          a.sum() / x.size)
    return _GridTransform(grid, values, samples, kernel, run_cells,
                          run_values)


# --------------------------------------------------------------------------
# Sample files
# --------------------------------------------------------------------------

def load_samples(path: str) -> SampleSet:
    """Read a sample file: UTF-8 text, one nonnegative decimal per line.

    A leading byte-order mark is skipped, lines may end in \\n, \\r\\n or
    \\r, and blank lines and lines starting with '#' are ignored. Bytes that
    are not UTF-8, and negative, non-finite or unparseable entries, raise
    SampleFileError carrying the line number. A value counts as zero only
    when it parses to exactly 0.0.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # one more than the line breaks (\n, \r\n or \r) before the bad byte
        line = len((exc.object[:exc.start] + b".").splitlines())
        raise SampleFileError(path, line, "not UTF-8 text") from None
    values: list[float] = []
    for lineno, raw in enumerate(io.StringIO(text, newline=None), start=1):
        token = raw.strip()
        if not token or token.startswith("#"):
            continue
        try:
            value = float(token)
        except ValueError:
            raise SampleFileError(path, lineno, f"not a number: {token!r}") from None
        if not math.isfinite(value):
            raise SampleFileError(path, lineno, f"non-finite value: {token!r}")
        if value < 0:
            raise SampleFileError(path, lineno, f"negative value: {token!r}")
        values.append(value)
    if not values:
        raise SampleFileError(path, 1, "file contains no samples")
    return SampleSet(np.asarray(values))


def save_samples(samples: SampleSet, stream) -> None:
    """Write one value per line to an open text stream, as the shortest
    decimal of each double, so load_samples reads back the same bits."""
    stream.writelines(f"{v!r}\n" for v in samples.values.tolist())
