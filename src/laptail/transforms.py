"""Laplace transforms on the Bromwich contour.

Empirical transforms of nonnegative samples, closed-form transforms of a few
analytic models used as oracles and simulators, and the sample file format.
All transforms are evaluated on the closed right half-plane Re(s) >= 0 only.

On a contour grid s_k = c + i k h the empirical transform is a type-1
non-uniform DFT, (1/n) sum_j a_j e^{-i k theta_j} with real weights
a_j = e^{-c x_j} and theta_j = h x_j mod 2 pi. ``empirical_transform_grid``
evaluates it with a Gaussian-gridding NUFFT (Greengard & Lee, SIAM Review
46(3), 2004; Dutt & Rokhlin, SIAM J. Sci. Comput. 14, 1993) in
O(n W + K log K) for K grid points and a kernel spread over W grid cells,
instead of O(n K) products. The K modes k = 0 .. K-1 are taken as the upper
half of a centred range of 2K modes, so the weights stay real: each sample
is spread once with a real kernel and one real FFT gives every mode. The
kernel is spread only over the arc of the circle that the phases occupy,
often a small part of it since h x is small on a fine grid, and that arc
is folded onto the periodic grid by cell index, so no phase factor is
needed.
Against direct evaluation the error stays below 1.5e-14 absolute and does
not grow with K: 1.4e-14 at most for samples of Exp(mean 0.05), whose
phases all sit near 0, and 4.1e-15 for Exp(mean 1) and Gamma(20, 0.05),
over five seeds of 2000 samples at 401 to 64 001 points.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np
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
# truncation and aliasing errors sit below rounding (max error 1.4e-14 on
# 16 001 points for 2000 exponential samples of mean 0.05); half-width 12 gave
# 4e-13 and 8 gave 2e-9 on the same case.
_SPREAD_HALF_WIDTH = 16
_OVERSAMPLE = 2
_SPREAD_OFFSETS = np.arange(1 - _SPREAD_HALF_WIDTH, _SPREAD_HALF_WIDTH + 1)
# Samples spread per block; a block's arrays stay near 128 KiB each.
_SPREAD_BLOCK = 512


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
    zero_tol : float, optional
        Absolute threshold below which a value counts as zero. The default
        0.0 means exact floating equality with 0.0, which is the right
        choice for simulated data where zeros are exact.

    Attributes
    ----------
    n : int
        Number of observations.
    mean : float
        Arithmetic mean of the values.
    zero_fraction : float
        Fraction of values counted as zero.
    max_value : float
        Largest value.
    """

    values: np.ndarray
    zero_tol: float = 0.0

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
        if self.zero_tol < 0:
            raise ParameterError("zero_tol must be nonnegative")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "n", int(vals.size))
        object.__setattr__(self, "mean", float(vals.mean()))
        object.__setattr__(self, "max_value", float(vals.max()))
        if self.zero_tol == 0.0:
            zeros = int(np.count_nonzero(vals == 0.0))
        else:
            zeros = int(np.count_nonzero(vals <= self.zero_tol))
        object.__setattr__(self, "zero_fraction", zeros / vals.size)


@dataclass(frozen=True, eq=False)
class ContourGrid:
    """Uniform symmetric grid on the vertical contour Re(s) = c.

    ``ys`` spans [-t_max, t_max], is strictly increasing, symmetric about 0
    and contains 0 exactly; grid points are s = c + i*y.
    """

    c: float
    t_max: float
    ys: np.ndarray

    def __post_init__(self):
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ParameterError("contour abscissa c must be positive")
        if not (self.t_max > 0 and math.isfinite(self.t_max)):
            raise ParameterError("truncation level t_max must be positive")
        ys = np.asarray(self.ys, dtype=float)
        if ys.ndim != 1 or ys.size < 3:
            raise ParameterError("grid needs at least three points")
        if not np.all(np.diff(ys) > 0):
            raise ParameterError("grid ordinates must be strictly increasing")
        if ys[0] != -self.t_max or ys[-1] != self.t_max:
            raise ParameterError("grid must span [-t_max, t_max] exactly")
        if not np.array_equal(ys, -ys[::-1]):
            raise ParameterError("grid must be symmetric about 0")
        if ys[ys.size // 2] != 0.0:
            raise ParameterError("grid must contain 0")
        ys = ys.copy()
        ys.flags.writeable = False
        object.__setattr__(self, "ys", ys)

    @property
    def n_points(self) -> int:
        return self.ys.size

    @property
    def center_index(self) -> int:
        """Index of the point y = 0."""
        return self.ys.size // 2

    @functools.cached_property
    def points(self) -> np.ndarray:
        """Complex grid points c + i*y (read-only, computed once)."""
        pts = self.c + 1j * self.ys
        pts.flags.writeable = False
        return pts

    @functools.cached_property
    def spacing(self) -> float:
        """Uniform step t_max / (points per half), validated to relative 1e-9.

        Taken from the end point rather than a difference of neighbours,
        which carries the rounding of t_max and is off by ~1e-12 relative.
        Computed and validated once, on first access.
        """
        d = np.diff(self.ys)
        h = self.t_max / self.center_index
        if np.max(np.abs(d - h)) > 1e-9 * h:
            raise ParameterError("grid spacing is not uniform")
        return h


@dataclass(frozen=True, eq=False)
class TransformValues:
    """Transform values attached to the contour grid they were computed on."""

    grid: ContourGrid
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != self.grid.ys.shape:
            raise ParameterError("one transform value per grid point required")
        vals = vals.copy()
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

    @property
    def second_moment(self) -> float:
        return 2.0 / self.rate**2

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

    @property
    def second_moment(self) -> float:
        return self.point**2

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

    @property
    def second_moment(self) -> float:
        return self.shape * (self.shape + 1.0) * self.scale**2

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


@dataclass(frozen=True)
class CompoundPoisson:
    """Poisson(intensity) sum of i.i.d. draws from a job model."""

    intensity: float
    jobs: JobModel

    def __post_init__(self):
        if not self.intensity > 0:
            raise ParameterError("compound Poisson intensity must be positive")

    @property
    def mean(self) -> float:
        return self.intensity * self.jobs.mean

    @property
    def second_moment(self) -> float:
        m = self.mean
        return self.intensity * self.jobs.second_moment + m * m

    def transform(self, s):
        return np.exp(self.intensity * (self.jobs.transform(s) - 1.0))


AnalyticModel = JobModel | CompoundPoisson


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
    e^{-Re(s) x_i} underflows add exactly 0.
    """
    s = _require_right_half_plane(s)
    x = samples.values
    if s.ndim == 0:
        largest = float(s.real) * samples.max_value
        return complex(np.mean(_exp_terms(s, x, largest)))
    flat = s.ravel()
    largest = float(flat.real.max(initial=0.0)) * samples.max_value
    out = np.empty(flat.size, dtype=complex)
    rows = max(1, _DIRECT_BLOCK // max(x.size, 1))
    for start in range(0, flat.size, rows):
        block = flat[start:start + rows, None]
        out[start:start + rows] = _exp_terms(block, x, largest).mean(axis=1)
    return out.reshape(s.shape)


def empirical_evaluator(samples: SampleSet):
    """Callable s -> empirical transform value, for branch tracking."""
    def evaluate(s):
        return empirical_transform_eval(samples, s)
    return evaluate


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


def _phase_sums(x: np.ndarray, a: np.ndarray, h: float, n_modes: int) -> np.ndarray:
    """sum_j a_j e^{-i k h x_j} for k = 0 .. n_modes-1, by NUFFT; a_j real.

    The modes are the upper half of the centred range [-n_modes, n_modes),
    on a periodic grid of ``size`` >= 4 n_modes cells. The cell position
    h x_j mod 2 pi of every sample is computed once. Each weight a_j is
    spread with a Gaussian kernel over the 2 half_width cells around its
    position, into a buffer that spans only the occupied arc: from
    half_width - 1 cells below the lowest occupied cell to half_width cells
    above the highest. The buffer is folded onto the periodic grid in index
    space, buffer cell e adding to cell (first + e) mod size, so the
    buffer's offset needs no phase factor on the modes. One real FFT of the
    folded grid gives mode k at index k, and multiplying by the real
    e^{k^2 tau} undoes the kernel. For |k| < n_modes that factor stays below
    e^{pi half_width / 12}, about 66. When the phases cover the whole
    circle the buffer is at most size + 2 half_width - 1 cells long.
    """
    if x.size == 0:
        return np.zeros(n_modes, dtype=complex)
    modes = 2 * n_modes
    size = _fft_length(_OVERSAMPLE * modes)
    # Greengard & Lee's tau = pi half_width / (M^2 R (R - 1/2)) with
    # M = modes and R = size / M; alpha is the kernel exponent in units of
    # grid cells squared.
    tau = 2.0 * math.pi * _SPREAD_HALF_WIDTH / (size * (2.0 * size - modes))
    alpha = math.pi * (2.0 * size - modes) / (2.0 * size * _SPREAD_HALF_WIDTH)
    u = np.mod(h * x, 2.0 * math.pi)
    u *= size / (2.0 * math.pi)
    base = np.floor(u)
    u -= base
    # a sample in cell b covers cells b + _SPREAD_OFFSETS; buffer cell e is
    # periodic cell first + e
    first = int(base.min()) + _SPREAD_OFFSETS[0]
    length = int(base.max()) + _SPREAD_OFFSETS[-1] + 1 - first
    cells = base.astype(np.intp) - first
    spread = np.zeros(length)
    for start in range(0, x.size, _SPREAD_BLOCK):
        stop = start + _SPREAD_BLOCK
        kernel = u[start:stop, None] - _SPREAD_OFFSETS
        kernel *= kernel
        kernel *= -alpha
        np.exp(kernel, out=kernel)
        kernel *= a[start:stop, None]
        index = (cells[start:stop, None] + _SPREAD_OFFSETS).ravel()
        spread += np.bincount(index, kernel.ravel(), length)
    folded = np.bincount((first + np.arange(length)) % size, spread, size)
    del spread  # before the FFT allocates, to keep peak memory down
    k = np.arange(n_modes)
    out = np.fft.rfft(folded)[:n_modes]
    out *= np.exp(k * k * tau)
    out *= math.sqrt(math.pi / tau) / size
    return out


def empirical_transform_grid(samples: SampleSet, grid: ContourGrid) -> TransformValues:
    """Empirical transform on a full contour grid.

    The upper half-grid y_k = k h is a type-1 non-uniform DFT of the nonzero
    samples with real weights e^{-c x}, evaluated by the real-weight NUFFT
    of ``_phase_sums`` (see the module docstring); samples whose weight
    underflows to 0 are left out. Exact zeros (``x == 0.0``, whatever
    ``zero_tol`` says) add their fraction to every point, and the anchor
    y = 0 is the real mean of e^{-c x}. The lower half is mirrored by
    conjugation, so conjugate symmetry and a real anchor hold exactly.
    Against direct evaluation (``empirical_transform_eval`` on
    ``grid.points``) the error stays below 1.5e-14 absolute, independent of
    the grid size: the largest measured, 1.4e-14, is for samples of
    Exp(mean 0.05), whose phases all sit near 0. It is largest at the top
    modes, where the deconvolution factor is largest, and smallest near
    y = 0. Both this and the direct sum carry the rounding of each phase
    y x, about 1e-16 |y x| e^{-c x} per sample, which dominates for few
    samples far out: a lone sample at x = 10 with c = 0.1 differs by 2e-13
    at y = 400.
    """
    x = samples.values
    mid = grid.center_index
    a = np.exp(-grid.c * x)
    # zeros are added exactly below; samples whose weight underflows add
    # nothing and could overflow h * x
    gridded = (x != 0.0) & (a > 0.0)
    upper = _phase_sums(x[gridded], a[gridded], grid.spacing, grid.n_points - mid)
    upper /= x.size
    upper += np.count_nonzero(x == 0.0) / x.size
    upper[0] = a.mean()
    values = np.concatenate([np.conj(upper[:0:-1]), upper])
    return TransformValues(grid, values)


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


def load_samples(path: str, column: str | None = None,
                 zero_tol: float = 0.0) -> SampleSet:
    """Read a sample file.

    Plain text by default: one nonnegative decimal per line, blank lines and
    lines starting with '#' ignored. With ``column`` given the file is read
    as CSV and that column is extracted. Negative, non-finite or unparseable
    entries raise SampleFileError carrying the line number.
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
    return SampleSet(np.asarray(values), zero_tol=zero_tol)


def save_samples(samples: SampleSet, path: str) -> None:
    """Write one value per line, full precision, loadable by load_samples."""
    with open(path, "w") as fh:
        for v in samples.values:
            fh.write(f"{float(v)!r}\n")
