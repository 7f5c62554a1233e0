"""Independent reference computations that only tests use.

They judge fast paths in fracspde without sharing their code: the
Toeplitz bilinear form here, a matrix-vector product of its own, checks
the support-truncated quadratic forms of fracspde.verify, and the
one-step scheme (implicit_euler_step with apply_nemytskii) checks the
Euler sweep of fracspde.kernels. The analytic covariances (fbm_covariance,
increment_covariance_matrix) are the targets of the sampler tests, and
the norms measure the semigroup and the projection. unfolded_sin_sweep,
the F = sin step with its constants applied one by one through the dense
sine matrix or scipy's DST-I, checks both folded steps of the sweep, and
sine_factors states the factors those steps fold their constants into.
_block_increments, the scaled (M, N, B) block that the studies once
swept whole, checks the chunked rungs of fracspde.solver._solve_block.
nan_draws puts a NaN into chosen samples' draws, so that the guards
against non-finite states can be driven without a diverging scheme.
"""

import math

import numpy as np

from fracspde import kernels
from fracspde.fbm import (
    HurstParameter,
    IncrementGrid,
    _fgn_covariance_seq,
    increment_rows,
    mode_keys,
)
from fracspde.spectral import (
    DiagonalNoiseOperator,
    NemytskiiMap,
    SpectralOperator,
    SpectralState,
    _dst1,
    sine_matrix,
    sine_transform,
)

__all__ = [
    "apply_nemytskii",
    "fbm_covariance",
    "implicit_euler_step",
    "increment_covariance_matrix",
    "inverse_sine_transform",
    "l2_norm",
    "nan_draws",
    "sine_factors",
    "sobolev_norm",
    "toeplitz_bilinear",
    "unfolded_sin_sweep",
]


def fbm_covariance(s: float, t: float, h: HurstParameter) -> float:
    """fBm covariance R_H(s, t) = 0.5 (s^{2H} + t^{2H} - |t-s|^{2H})."""
    if s < 0 or t < 0:
        raise ValueError("fbm_covariance requires s, t >= 0")
    p = 2.0 * h.h
    return 0.5 * (s**p + t**p - abs(t - s) ** p)


def increment_covariance_matrix(grid: IncrementGrid,
                                h: HurstParameter) -> np.ndarray:
    """Full analytic M x M increment covariance (Toeplitz)."""
    gamma = grid.tau ** (2.0 * h.h) * _fgn_covariance_seq(grid.m_steps - 1, h)
    idx = np.arange(grid.m_steps)
    return gamma[np.abs(idx[:, None] - idx[None, :])]


def _check_dims(op: SpectralOperator, x: SpectralState) -> None:
    if op.n_modes != x.n_modes:
        raise ValueError(
            f"dimension mismatch: operator has {op.n_modes} modes, state has "
            f"{x.n_modes}"
        )


def l2_norm(x: SpectralState) -> float:
    """L2 norm of the represented function (Parseval)."""
    return float(np.linalg.norm(x.coeffs))


def sobolev_norm(op: SpectralOperator, delta: float, x: SpectralState) -> float:
    """Norm of V_delta = dom(A^{delta/2}): ||lambda^{delta/2} coeffs||."""
    _check_dims(op, x)
    return float(np.linalg.norm(op.eigenvalues ** (delta / 2.0) * x.coeffs))


def inverse_sine_transform(values: np.ndarray) -> np.ndarray:
    """Recover coefficients from sine-grid values (exact round trip)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    return _dst1(values, axis=-1) / math.sqrt(n + 1)


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


def unfolded_sin_sweep(x0: np.ndarray, step_factor: np.ndarray, tau: float,
                       dw: np.ndarray, stops, fast: bool = False
                       ) -> np.ndarray:
    """States at ``stops`` of the F = sin scheme, one step at a time with
    every constant applied on its own: x <- step_factor * (x + tau *
    (S @ sin(sqrt(N+1) S @ x)) / sqrt(N+1) + dW). S x is the dense sine
    matrix times x, or with ``fast`` scipy's orthonormal DST-I of x
    (needs scipy). x0 is (N,) or (N, S), dw (M, N) or (M, N, S)."""
    n = x0.shape[0]
    if fast:
        from scipy.fft import dst

        def sine(v):
            return dst(v, type=1, norm="ortho", axis=0)
    else:
        mat = sine_matrix(n)

        def sine(v):
            return np.dot(mat, v)
    scale = math.sqrt(n + 1)
    f = step_factor.reshape((-1,) + (1,) * (x0.ndim - 1))
    states = {0: x0}
    x = x0
    for m in range(1, max(stops) + 1):
        u = scale * sine(x)
        fx = sine(np.sin(u)) / scale
        x = f * (x + tau * fx + dw[m - 1])
        if m in stops:
            states[m] = x
    return np.array([states[k] for k in stops])


def sine_factors(f_kind: int, tau: float, step_factor: np.ndarray):
    """(sin_in, sin_out) into which an F = sin step folds its constants,
    as the kernels docstring states them: for kernels.F_SIN the (N, N)
    matrices sqrt(N+1) S and (tau/sqrt(N+1)) diag(step_factor) S, for
    kernels.F_SIN_FFT the scalar A = (-2c) sqrt(N+1) and the (N,) G =
    ((-2c) tau / sqrt(N+1)) step_factor, c = 1/sqrt(2(N+1)) in long
    double; (None, None) for F = 0."""
    n = step_factor.size
    root = math.sqrt(n + 1)
    if f_kind == kernels.F_SIN:
        mat = sine_matrix(n)
        return root * mat, (tau / root) * step_factor[:, None] * mat
    if f_kind == kernels.F_SIN_FFT:
        minus_2c = -2.0 * float(1 / np.sqrt(np.longdouble(2 * (n + 1))))
        return minus_2c * root, (minus_2c * tau / root) * step_factor
    return None, None


def nan_draws(monkeypatch, module, seeds, step: int) -> None:
    """Make ``module``'s increment_rows put a NaN into increment ``step``
    of mode 0 of every sample whose seed is in ``seeds``; every other
    value is the one drawn. A sample's column is found by its mode 0 key,
    mode_keys([seed], 1)."""
    bad = mode_keys(list(seeds), 1)[0]
    draw = module.increment_rows

    def poisoned(grid, h, keys, method="circulant"):
        rows = draw(grid, h, keys, method)
        rows[0, np.isin(keys[0], bad), step] = np.nan
        return rows

    monkeypatch.setattr(module, "increment_rows", poisoned)


def _block_increments(config, seeds: tuple) -> np.ndarray:
    """(M, N, B) scaled increments; column s is the sample with seeds[s].

    Row k of a sample draws its fBm from the seed derived from (seed, k),
    as generate_cylindrical_fbm does, times the noise amplitude phi_k, so
    column s equals that sample's values[:N].T times phi bit for bit. The
    block's (N, B, M) rows are one increment_rows call on its mode keys.
    """
    n = config.n_modes
    rows = increment_rows(config.grid(), config.hurst, mode_keys(seeds, n),
                          config.fbm_method)
    dw = np.empty((config.m_steps, n, len(seeds)))
    np.multiply(config.noise.amplitudes[:n, None], rows.transpose(2, 0, 1),
                out=dw)
    return dw
