"""Independent reference computations that only tests use.

They judge fast paths in fracspde without sharing their code: the
Toeplitz bilinear form here, a matrix-vector product of its own, checks
the support-truncated quadratic forms of fracspde.verify, and the
one-step scheme (implicit_euler_step with apply_nemytskii) checks the
Euler sweep of fracspde.kernels.
"""

import numpy as np

from fracspde.spectral import (
    DiagonalNoiseOperator,
    NemytskiiMap,
    SpectralOperator,
    SpectralState,
    inverse_sine_transform,
    sine_transform,
)

__all__ = ["apply_nemytskii", "implicit_euler_step", "toeplitz_bilinear"]


def _toeplitz_matvec(gamma: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gamma @ v for the symmetric Toeplitz matrix with first row gamma."""
    m = gamma.size
    first_row = np.concatenate([gamma, [0.0], gamma[-1:0:-1]])
    out = np.fft.irfft(np.fft.rfft(first_row) * np.fft.rfft(v, 2 * m),
                       2 * m)
    return out[:m]


def toeplitz_bilinear(gamma: np.ndarray, u: np.ndarray,
                      v: np.ndarray) -> float:
    """u^T Gamma v with Gamma_{ij} = gamma[|i-j|]."""
    return float(u @ _toeplitz_matvec(gamma, v))


def apply_nemytskii(f: NemytskiiMap, x: SpectralState) -> SpectralState:
    """F(x) in coefficients; pointwise kinds go through the sine grid."""
    if f.kind == "zero":
        return SpectralState(coeffs=np.zeros_like(x.coeffs), time=x.time)
    if f.kind == "identity_scaled":
        return SpectralState(coeffs=f.lipschitz_bound * x.coeffs, time=x.time)
    u = sine_transform(x.coeffs)
    return SpectralState(coeffs=inverse_sine_transform(np.sin(u)), time=x.time)


def implicit_euler_step(x: SpectralState, tau: float, op: SpectralOperator,
                        f: NemytskiiMap, noise: DiagonalNoiseOperator,
                        dw: np.ndarray) -> SpectralState:
    """One step of the scheme from state x with noise increment vector dw."""
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    n = x.n_modes
    dw = np.asarray(dw, dtype=float)
    if op.n_modes != n or noise.n_modes < n or dw.shape != (n,):
        raise ValueError("dimension mismatch in implicit_euler_step")
    factor = 1.0 / (1.0 + tau * op.eigenvalues)
    fx = apply_nemytskii(f, x).coeffs
    coeffs = factor * (x.coeffs + tau * fx + noise.amplitudes[:n] * dw)
    return SpectralState(coeffs=coeffs, time=x.time + tau)
