"""Exact sampling of fractional Gaussian noise and cylindrical fBm.

Increments, not path values, are the canonical representation: the
implicit Euler scheme consumes only the per-step noise. One sampler call,
increment_rows, makes every draw: it returns one row per seed, in the
shape of the seeds, each row drawn from its seed alone, so a row is
bit-identical whatever else is in the batch. Mode k of a sample is keyed
by mode_keys, so a block of samples is one call on its (N, B) key array:
the solver's (N, B, M) rows, a block of one seed for gen-fbm and solve,
and, transposed, the isometry check's sample-major rows. A row's normals
are those of np.random.default_rng(seed), from PCG64 states computed for
the whole call in one vectorised pass (rng.seed_words, rng.pcg64_states).
The call draws chunks of whole rows of the key array, each within
_ROW_CHUNK_BYTES of normals, through one reused set of work buffers.

Two exact methods are provided: a dense Cholesky factorization of the
increment covariance (reference, O(M^3) setup, at most 4096 steps) and
circulant embedding of fractional Gaussian noise (Davies-Harte,
O(M log M)), which writes only the Hermitian half of the embedded
spectrum and synthesises a chunk of rows with one real FFT into the
call's output buffer; the scale of its bins is computed once per cached
eigenvalue set (_circulant_bins, emptied by clear_caches). Both
reproduce the analytic covariance

    E[dw_i dw_j] = 0.5 * tau^{2H} * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}),

k = |i - j|, exactly (not just asymptotically), which matters when the
sampler sits underneath convergence-rate measurements.

Restricted to H in (1/2, 1); smaller Hurst indices put the circulant
embedding in a different regime and are out of scope.
"""

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .rng import (MODE_STREAM, NormalDrawer, derive_seed, pcg64_states,
                  seed_words)

__all__ = [
    "CirculantEmbeddingError",
    "CylindricalFbmSample",
    "HurstParameter",
    "IncrementGrid",
    "aggregate_cylindrical",
    "check_method",
    "fgn_covariance",
    "generate_cylindrical_fbm",
    "increment_covariance",
    "increment_rows",
    "mode_keys",
]

GENERATOR_METHODS = ("cholesky", "circulant")

# Relative tolerance on negative circulant eigenvalues before the
# embedding is declared broken (never triggers for fGn with H > 1/2).
_EMBEDDING_TOL = 1e-10


class CirculantEmbeddingError(RuntimeError):
    """The circulant embedding of the fGn covariance is not PSD."""


@dataclass(frozen=True)
class HurstParameter:
    """Hurst index H, restricted to the open interval (1/2, 1)."""

    h: float

    def __post_init__(self):
        if not 0.5 < self.h < 1.0:
            raise ValueError(f"hurst must be in (0.5, 1), got {self.h}")

    @property
    def alpha_h(self) -> float:
        """H(2H - 1), the constant in the kernel phi(y) = alpha_H |y|^{2H-2}."""
        return self.h * (2.0 * self.h - 1.0)


@dataclass(frozen=True)
class IncrementGrid:
    """Uniform mesh with m_steps steps of size tau on [0, m_steps*tau]."""

    m_steps: int
    tau: float

    def __post_init__(self):
        if self.m_steps < 1:
            raise ValueError(f"m_steps must be >= 1, got {self.m_steps}")
        if not 0 < self.tau < np.inf:
            raise ValueError(
                f"tau must be positive and finite, got {self.tau}")

    @property
    def horizon(self) -> float:
        return self.m_steps * self.tau


@dataclass(frozen=True, eq=False)
class CylindricalFbmSample:
    """Independent scalar fBm rows, one per noise mode, on a shared grid.

    Row k is reproducible from (base_seed, k) alone, so growing the mode
    count preserves existing rows (the nesting used by spatial-refinement
    coupling).
    """

    grid: IncrementGrid
    values: np.ndarray  # shape (modes, m_steps)
    hurst: HurstParameter
    base_seed: int
    method: str

    @property
    def modes(self) -> int:
        return self.values.shape[0]


def fgn_covariance(k: int, h: HurstParameter) -> float:
    """Autocovariance of unit-spacing fGn at lag k (variance 1 at k=0)."""
    k = abs(int(k))
    p = 2.0 * h.h
    return 0.5 * ((k + 1) ** p - 2.0 * k**p + abs(k - 1) ** p)


def increment_covariance(i: int, j: int, grid: IncrementGrid,
                         h: HurstParameter) -> float:
    """E[dw_i dw_j] for the increments of one scalar fBm on the grid."""
    for idx in (i, j):
        if not 0 <= idx < grid.m_steps:
            raise ValueError(
                f"step index {idx} out of range [0, {grid.m_steps})"
            )
    return grid.tau ** (2.0 * h.h) * fgn_covariance(i - j, h)


def _fgn_covariance_seq(m: int, h: HurstParameter) -> np.ndarray:
    """Unit-spacing fGn autocovariances at lags 0..m."""
    k = np.arange(m + 1, dtype=float)
    p = 2.0 * h.h
    return 0.5 * ((k + 1) ** p - 2.0 * k**p + np.abs(k - 1) ** p)


# ---------------------------------------------------------------------------
# generator internals; factor caches are LRU-bounded

# Dense Cholesky holds an M x M factor: 128 MiB at this size, 2 GiB at
# M = 2^14. Beyond it only the circulant embedding is allowed.
_CHOLESKY_MAX_STEPS = 4096

# Normals drawn per chunk of whole key rows in increment_rows (whole
# modes of a solver block, whole samples of an isometry block); bounds
# the chunk's temporaries (normals, half spectrum, FFT output) to a few
# hundred KiB.
_ROW_CHUNK_BYTES = 2**18


def check_method(method: str, m_steps: int) -> None:
    """Raise ValueError unless `method` can sample m_steps increments."""
    if method not in GENERATOR_METHODS:
        raise ValueError(f"unknown method {method!r}; use one of"
                         f" {GENERATOR_METHODS}")
    if method == "cholesky" and m_steps > _CHOLESKY_MAX_STEPS:
        raise ValueError(
            f"method 'cholesky' is limited to {_CHOLESKY_MAX_STEPS} steps"
            f" (its dense factor has M^2 entries), got {m_steps}; use"
            " 'circulant', which is exact at any size"
        )


# every cache that clear_caches empties: this module's, solver's, verify's
_CACHES = []


def _bounded_cache(fn):
    """functools.lru_cache of 8 entries, emptied by clear_caches."""
    cached = functools.lru_cache(maxsize=8)(fn)
    _CACHES.append(cached)
    return cached


def clear_caches() -> None:
    for cached in _CACHES:
        cached.cache_clear()


@_bounded_cache
def _cholesky_factor(m: int, h: HurstParameter) -> np.ndarray:
    check_method("cholesky", m)
    gamma = _fgn_covariance_seq(m - 1, h)
    idx = np.arange(m)
    factor = np.linalg.cholesky(gamma[np.abs(idx[:, None] - idx[None, :])])
    factor.flags.writeable = False
    return factor


def circulant_eigenvalues(gamma: np.ndarray) -> np.ndarray:
    """Eigenvalues of the circulant embedding of a Toeplitz covariance.

    gamma holds autocovariances at lags 0..m; the embedded circulant has
    first row (gamma_0 .. gamma_m, gamma_{m-1} .. gamma_1) of size 2m.
    Raises CirculantEmbeddingError if any eigenvalue is negative beyond
    tolerance; tiny negative round-off is clipped to zero.
    """
    first_row = np.concatenate([gamma, gamma[-2:0:-1]])
    eigs = np.fft.fft(first_row).real
    floor = -_EMBEDDING_TOL * eigs.max()
    if eigs.min() < floor:
        raise CirculantEmbeddingError(
            f"circulant embedding not PSD: min eigenvalue {eigs.min():.3e}"
        )
    return np.clip(eigs, 0.0, None)


class _CirculantBins(NamedTuple):
    """Read-only spectrum of the 2m circulant embedding of unit fGn."""

    sqrt_eigs: np.ndarray  # square roots of its 2m eigenvalues
    amp: np.ndarray  # sqrt_eigs[1:m] / sqrt(4m), the interior bins' scale
    neg_amp: np.ndarray  # -amp


@_bounded_cache
def _circulant_bins(m: int, h: HurstParameter) -> _CirculantBins:
    sqrt_eigs = np.sqrt(circulant_eigenvalues(_fgn_covariance_seq(m, h)))
    amp = sqrt_eigs[1:m] / np.sqrt(4 * m)
    neg_amp = -amp
    for array in (sqrt_eigs, amp, neg_amp):
        array.flags.writeable = False
    return _CirculantBins(sqrt_eigs, amp, neg_amp)


def _synthesize_circulant(bins: _CirculantBins, z: np.ndarray, m: int,
                          half: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Map 2m iid standard normals (last axis of z) to m exact fGn values.

    Davies-Harte: the spectrum w built from z is Hermitian (w[2m-k] =
    conj(w[k])), so fft(w) is real and equals the unnormalised inverse
    real FFT of conj(w[:m+1]). Only that half spectrum is written, into
    ``half`` (complex, last axis m + 1), with the imaginary signs
    flipped, and one length-2m real FFT per row writes ``full`` (last
    axis 2m); returns the view of its first m values. Both buffers are
    overwritten whole, so one pair serves every chunk of a draw.
    """
    m2 = 2 * m
    re, im = half.real, half.imag
    re[..., 0] = bins.sqrt_eigs[0] * z[..., 0] / np.sqrt(m2)
    re[..., m] = bins.sqrt_eigs[m] * z[..., 1] / np.sqrt(m2)
    im[..., 0] = 0.0
    im[..., m] = 0.0
    np.multiply(bins.amp, z[..., 2::2], out=re[..., 1:m])
    np.multiply(bins.neg_amp, z[..., 3::2], out=im[..., 1:m])
    np.fft.irfft(half, m2, axis=-1, norm="forward", out=full)
    return full[..., :m]


def increment_rows(grid: IncrementGrid, h: HurstParameter, seeds,
                   method: str = "circulant") -> np.ndarray:
    """Exact fBm increments on the grid, one row per seed.

    Returns an array of shape np.shape(seeds) + (m_steps,): the row at
    each index of seeds is drawn from that seed alone (2m standard
    normals for circulant, m for cholesky, from rng.NormalDrawer), so it
    is bit-identical whatever the other seeds are and however the rows
    are chunked. A block's mode_keys(seeds, N) gives its (N, B, M) rows.

    The rows are drawn in chunks of whole rows of the key array (seeds[i]
    for a run of i), each chunk's normals within _ROW_CHUNK_BYTES unless
    one key row exceeds it. The PCG64 states of every row come from one
    vectorised hash and seeding pass, one NormalDrawer draws every chunk,
    and the work buffers (normals, and for circulant the half spectrum
    and the FFT output) are allocated once per call: fresh ones per chunk
    would page-fault every chunk in again.

    Parameters
    ----------
    grid : IncrementGrid
        Uniform time mesh.
    h : HurstParameter
        Hurst index in (1/2, 1).
    seeds : int, sequence or array of int
        64-bit seeds, one per row, of any shape.
    method : {"circulant", "cholesky"}
        circulant embeds the fGn covariance in a 2M circulant and
        synthesises a chunk of rows with one half-length real FFT
        (O(M log M) per row); cholesky multiplies each row's normals by
        the dense factor (reference, at most _CHOLESKY_MAX_STEPS steps).
    """
    m = grid.m_steps
    check_method(method, m)
    # the shape only: as an array, Python-int seeds >= 2^63 turn to floats
    shape = np.shape(seeds)
    out = np.empty(shape + (m,))
    flat = out.reshape(-1, m)
    width = 2 * m if method == "circulant" else m  # normals per row
    group = math.prod(shape[1:]) or 1  # rows per key row
    chunk = max(1, _ROW_CHUNK_BYTES // (8 * width * group)) * group
    states = pcg64_states(seed_words(seeds))
    drawer = NormalDrawer()
    scale = grid.tau**h.h
    z = np.empty((min(chunk, len(states)), width))
    if method == "cholesky":
        factor = _cholesky_factor(m, h)
    else:
        bins = _circulant_bins(m, h)
        half = np.empty((len(z), m + 1), dtype=complex)
        full = np.empty((len(z), 2 * m))
    for lo in range(0, len(states), chunk):
        n = min(chunk, len(states) - lo)
        normals = drawer.fill(states[lo:lo + n], z[:n])
        rows = flat[lo:lo + n]
        if method == "cholesky":
            for row, row_normals in zip(rows, normals):
                np.multiply(scale, factor @ row_normals, out=row)
        else:
            np.multiply(scale, _synthesize_circulant(bins, normals, m,
                                                     half[:n], full[:n]),
                        out=rows)
    return out


def mode_keys(sample_seeds, modes: int) -> np.ndarray:
    """The increment_rows seeds of the first `modes` modes of each sample:
    a (modes, len(sample_seeds)) uint64 array whose entry [k, s] is
    derive_seed(sample_seeds[s], MODE_STREAM, k). Mode k of a cylindrical
    sample is drawn from it, wherever the sample is drawn."""
    return derive_seed(sample_seeds, MODE_STREAM, np.arange(modes)[:, None])


def generate_cylindrical_fbm(modes: int, grid: IncrementGrid,
                             h: HurstParameter, base_seed: int,
                             method: str = "circulant") -> CylindricalFbmSample:
    """Sample `modes` independent scalar fBm rows on a shared grid.

    One batched increment_rows call over the seeds derived from
    (base_seed, k), never a shared stream: rows stay independent, row k
    equals increment_rows at its seed alone bit for bit, and extending the
    mode count leaves existing rows bit-identical.
    """
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    values = increment_rows(grid, h, mode_keys([base_seed], modes)[:, 0],
                            method)
    values.flags.writeable = False
    return CylindricalFbmSample(grid=grid, values=values, hurst=h,
                                base_seed=int(base_seed), method=method)


def _aggregate_values(values: np.ndarray, ratio: int,
                      axis: int = -1) -> np.ndarray:
    """Sum increment blocks of length `ratio` along `axis`, left to right.

    Every coarse entry adds its block's terms strictly in order, the sum
    of the per-offset loop ``c = v[0::ratio]; c += v[r::ratio]``, whatever
    the shape or axis. Along the last axis each row is read once: it is
    transposed into a (ratio, m) block whose rows numpy's reduction along
    axis 0 adds in order (a single column would switch it to pairwise
    summation, so m = 1 takes the running sum). Other axes run the
    per-offset loop, whose slices are contiguous beyond the axis.
    """
    axis %= values.ndim
    if axis != values.ndim - 1:
        lead = (slice(None),) * axis
        coarse = values[lead + (slice(0, None, ratio),)].copy()
        for r in range(1, ratio):
            coarse += values[lead + (slice(r, None, ratio),)]
        return coarse
    rows = values.reshape(-1, values.shape[-1])
    m = rows.shape[1] // ratio
    coarse = np.empty((rows.shape[0], m))
    block = np.empty((ratio, m))
    for row, out in zip(rows, coarse):
        if m == 1:
            out[0] = np.cumsum(row)[-1]
        else:
            np.copyto(block, row.reshape(m, ratio).T)
            np.add.reduce(block, axis=0, out=out)
    return coarse.reshape(values.shape[:-1] + (m,))


def _coarse_grid(grid: IncrementGrid, ratio: int) -> IncrementGrid:
    if ratio < 1:
        raise ValueError(f"ratio must be >= 1, got {ratio}")
    if grid.m_steps % ratio:
        raise ValueError(
            f"m_steps {grid.m_steps} not divisible by ratio {ratio}"
        )
    return IncrementGrid(m_steps=grid.m_steps // ratio, tau=grid.tau * ratio)


def aggregate_cylindrical(sample: CylindricalFbmSample,
                          ratio: int) -> CylindricalFbmSample:
    """Sum blocks of `ratio` fine increments of every row into coarse-grid
    increments.

    Because fBm increments telescope, each row is distributed exactly as
    fBm increments on the coarse grid; it is the same driving path seen at
    lower resolution, which is what couples resolutions in the temporal
    convergence studies.
    """
    grid = _coarse_grid(sample.grid, ratio)
    values = _aggregate_values(sample.values, ratio)
    values.flags.writeable = False
    return CylindricalFbmSample(grid=grid, values=values, hurst=sample.hurst,
                                base_seed=sample.base_seed,
                                method=sample.method)
