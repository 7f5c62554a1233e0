"""Diagonal spectral calculus for the linear operator A and the noise.

Everything lives in the eigenbasis {e_n} of A, so the semigroup, the
resolvent step factor and the Galerkin projection are coefficientwise
operations; the solver applies them inline. The only non-diagonal piece
is the Nemytskii map, evaluated by collocation on the interior sine grid
(pseudo-spectral, no dealiasing: the aliasing error is dominated by the
scheme's discretization error at the resolutions used here).

The orthonormal DST-I ``_dst1`` behind ``sine_transform`` transforms the
odd extension with numpy's ``rfft`` and scales by c = 1/sqrt(2(N+1)),
``_dst1_scale``, computed in long double as pocketfft computes scipy's
orthonormal scale. So it equals ``scipy.fft.dst(type=1, norm="ortho")``
bit for bit (in double, the last bits differ from scipy's at some N; N
= 13 is one), numpy alone carries the transform and no run imports
scipy. The fast F = sin step takes its constants from the same scale
(``solver._sweep_setup``).
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DiagonalNoiseOperator",
    "NemytskiiMap",
    "SpectralOperator",
    "SpectralState",
    "dirichlet_laplacian",
    "identity_noise",
    "sine_grid",
    "sine_map",
    "sine_matrix",
    "sine_transform",
    "trace_class_noise",
    "zero_map",
    "zero_noise",
]


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """Positive self-adjoint operator given by its eigenvalue sequence."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=float)
        if lam.ndim != 1 or lam.size < 1:
            raise ValueError("eigenvalues must be a nonempty 1-d sequence")
        if not np.isfinite(lam).all():
            raise ValueError("eigenvalues must be finite")
        if lam[0] <= 0 or np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be positive and nondecreasing")
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size


def dirichlet_laplacian(n_modes: int) -> SpectralOperator:
    """Dirichlet Laplacian on (0,1): lambda_n = (n pi)^2, e_n = sqrt(2) sin(n pi x)."""
    if n_modes < 1:
        raise ValueError(f"n_modes must be >= 1, got {n_modes}")
    n = np.arange(1, n_modes + 1, dtype=float)
    return SpectralOperator(eigenvalues=(np.pi * n) ** 2)


NOISE_KINDS = ("identity", "trace_class_logsq", "custom")


@dataclass(frozen=True, eq=False)
class DiagonalNoiseOperator:
    """Noise operator Phi = Q^{1/2}, diagonal in the eigenbasis of A.

    ``beta`` is the regularity exponent entering every theoretical rate:
    for trace-class Q it is 1; for Q = I on (0,1) the admissible range is
    beta < 1/2 and the supremal value 1/2 is carried as the exponent the
    rates are quoted at.
    """

    amplitudes: np.ndarray
    beta: float
    kind: str = "custom"

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=float)
        if amp.ndim != 1 or amp.size < 1:
            raise ValueError("amplitudes must be a nonempty 1-d sequence")
        if not np.isfinite(amp).all():
            raise ValueError("amplitudes must be finite")
        if np.any(amp < 0):
            raise ValueError("amplitudes must be nonnegative")
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if not -math.inf < self.beta <= 1.0:
            raise ValueError(f"beta must be finite and <= 1, got {self.beta}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def n_modes(self) -> int:
        return self.amplitudes.size


def _trace_class_amplitudes(n_modes: int) -> np.ndarray:
    amp = np.zeros(n_modes)
    if n_modes >= 2:
        n = np.arange(2, n_modes + 1, dtype=float)
        amp[1:] = 1.0 / np.sqrt(n * np.log(n) ** 2)
    return amp


def identity_noise(n_modes: int) -> DiagonalNoiseOperator:
    """Q = I: phi_n = 1, carried at the supremal admissible beta = 1/2."""
    return DiagonalNoiseOperator(amplitudes=np.ones(n_modes), beta=0.5,
                                 kind="identity")


def trace_class_noise(n_modes: int) -> DiagonalNoiseOperator:
    """Q e_1 = 0, Q e_n = (n log(n)^2)^{-1} e_n for n >= 2; beta = 1."""
    return DiagonalNoiseOperator(amplitudes=_trace_class_amplitudes(n_modes),
                                 beta=1.0, kind="trace_class_logsq")


def zero_noise(n_modes: int) -> DiagonalNoiseOperator:
    """Phi = 0 (deterministic problem)."""
    return DiagonalNoiseOperator(amplitudes=np.zeros(n_modes), beta=1.0,
                                 kind="custom")


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Coefficients <X, e_n> of the solution at a fixed time."""

    coeffs: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.ndim != 1:
            raise ValueError("coeffs must be 1-d")
        if not np.isfinite(c).all():
            raise ValueError("coeffs must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return self.coeffs.size


NEMYTSKII_KINDS = ("zero", "pointwise_sin")


@dataclass(frozen=True)
class NemytskiiMap:
    """Pointwise, globally Lipschitz nonlinearity F: zero or sin."""

    kind: str

    def __post_init__(self):
        if self.kind not in NEMYTSKII_KINDS:
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")


def zero_map() -> NemytskiiMap:
    return NemytskiiMap(kind="zero")


def sine_map() -> NemytskiiMap:
    """u -> sin(u) pointwise; Lipschitz constant 1."""
    return NemytskiiMap(kind="pointwise_sin")


# ---------------------------------------------------------------------------
# interior sine-grid transforms (Dirichlet collocation)


def sine_grid(n_modes: int) -> np.ndarray:
    """Interior collocation points x_k = k/(N+1), k = 1..N."""
    return np.arange(1, n_modes + 1) / (n_modes + 1.0)


def sine_matrix(n_modes: int) -> np.ndarray:
    """Dense symmetric orthonormal DST-I matrix S (S @ S = I), read-only.

    Physical values are sqrt(N+1) * (S @ coeffs). It is the O(N^2)
    oracle for the fast transform; solver._sweep_setup builds the dense
    F = sin step's two factors from it, once per rung of a block.
    """
    j = np.arange(1, n_modes + 1)
    mat = np.sqrt(2.0 / (n_modes + 1)) * np.sin(
        np.pi * np.outer(j, j) / (n_modes + 1)
    )
    mat.flags.writeable = False
    return mat


def sine_transform(coeffs: np.ndarray) -> np.ndarray:
    """Evaluate u(x_k) = sum_n c_n sqrt(2) sin(n pi x_k) on the sine grid."""
    coeffs = np.asarray(coeffs, dtype=float)
    n = coeffs.shape[-1]
    return math.sqrt(n + 1) * _dst1(coeffs, axis=-1)


def _dst1_scale(n: int) -> float:
    """c = 1/sqrt(2(N+1)), the orthonormal DST-I's scale, rounded once
    from long double."""
    return float(1 / np.sqrt(np.longdouble(2 * (n + 1))))


def _dst1(x, axis=0):
    """Orthonormal DST-I along ``axis``: sine_matrix(N) @ x in O(N log N).

    x goes into rows 1..N of a zero-bordered length-2(N+1) buffer along
    axis 0, mirrored oddly into rows N+2.., and -c times the imaginary
    parts of bins 1..N of numpy's ``rfft`` are the transform, c =
    _dst1_scale(N).
    """
    x = np.moveaxis(np.asarray(x, dtype=float), axis, 0)
    n = x.shape[0]
    ext = np.zeros((2 * n + 2,) + x.shape[1:])
    ext[1:n + 1] = x
    np.negative(x[::-1], ext[n + 2:])
    bins = np.fft.rfft(ext, axis=0).imag[1:n + 1]
    return np.moveaxis(np.multiply(bins, -_dst1_scale(n)), 0, axis)
