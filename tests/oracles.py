"""Independent reference computations that only tests use.

They judge fast paths in fracspde without sharing their code: the
Toeplitz bilinear form here, a matrix-vector product of its own, checks
the support-truncated quadratic forms of fracspde.verify.
"""

import numpy as np

__all__ = ["toeplitz_bilinear"]


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
