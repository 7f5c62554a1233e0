"""Hot inner loops: implicit Euler sweeps and discrete convolution sums.

The time-stepping loop has a hard sequential dependence, so per-step
overhead dominates in pure numpy once the mode count is small. The two
Euler kernels are numba-jitted when numba is importable; setting the
environment variable FRACSPDE_DISABLE_NUMBA to a truthy value forces the
pure-numpy path. ``BACKEND`` reports the active choice, and the
``py_euler_*`` aliases always point at the uncompiled implementations.

The stochastic convolution has no such dependence: ``convolution_endpoint``
is plain numpy, a contraction over fixed blocks of rows that adds the
terms in the same left-to-right order as the step-by-step sum.

Nonlinearity codes: F_ZERO, F_SCALED (u -> scale*u in coefficients) and
F_SIN (collocation sin on the interior sine grid, via the dense
symmetric DST-I matrix ``dst_mat`` with grid scale ``dst_scale =
sqrt(N+1)``).
"""

import os

import numpy as np

F_ZERO = 0
F_SCALED = 1
F_SIN = 2


def _numba_disabled() -> bool:
    flag = os.environ.get("FRACSPDE_DISABLE_NUMBA", "").strip().lower()
    return flag not in ("", "0", "false", "no")


def _euler_endpoint(x0, step_factor, tau, dw_scaled, f_kind, f_scale,
                    dst_mat, dst_scale):
    """Run all implicit Euler steps, returning only the final state.

    dw_scaled has shape (m_steps, n_modes): row m holds phi_n * dW_{n,m}.
    Per step: x <- step_factor * (x + tau*F(x) + dW), F explicit.
    """
    x = x0.copy()
    m_steps = dw_scaled.shape[0]
    for m in range(m_steps):
        if f_kind == F_ZERO:
            x = step_factor * (x + dw_scaled[m])
        elif f_kind == F_SCALED:
            x = step_factor * (x + tau * (f_scale * x) + dw_scaled[m])
        else:
            u = dst_scale * np.dot(dst_mat, x)
            fx = np.dot(dst_mat, np.sin(u)) / dst_scale
            x = step_factor * (x + tau * fx + dw_scaled[m])
    return x


def _euler_trajectory(x0, step_factor, tau, dw_scaled, f_kind, f_scale,
                      dst_mat, dst_scale):
    """Same sweep as _euler_endpoint but storing all m_steps+1 states."""
    m_steps = dw_scaled.shape[0]
    out = np.empty((m_steps + 1, x0.shape[0]))
    out[0] = x0
    x = x0.copy()
    for m in range(m_steps):
        if f_kind == F_ZERO:
            x = step_factor * (x + dw_scaled[m])
        elif f_kind == F_SCALED:
            x = step_factor * (x + tau * (f_scale * x) + dw_scaled[m])
        else:
            u = dst_scale * np.dot(dst_mat, x)
            fx = np.dot(dst_mat, np.sin(u)) / dst_scale
            x = step_factor * (x + tau * fx + dw_scaled[m])
        out[m + 1] = x
    return out


# Rows of the convolution contracted at once: at 16 modes the (rows, N)
# temporaries stay under 1 MiB.
_CONV_BLOCK_ROWS = 4096


def convolution_endpoint(lam, dw_scaled, tau, upto):
    """Left-endpoint discrete stochastic convolution at t = upto*tau.

    Coefficient n accumulates sum_{j<upto} exp(-lam_n*(t - j*tau)) * dW_{n,j},
    with dw_scaled shaped (m_steps, n_modes). Each block of rows is formed
    as one (rows, N) array; the running sum is folded into its first row
    and the rows are added strictly in order (``cumsum`` keeps that order
    where ``sum`` switches to pairwise summation for one mode), so the
    result equals the step-by-step sum bit for bit at any block size.
    """
    acc = np.zeros(lam.shape[0])
    t = upto * tau
    for j0 in range(0, upto, _CONV_BLOCK_ROWS):
        j1 = min(j0 + _CONV_BLOCK_ROWS, upto)
        lags = t - np.arange(j0, j1) * tau
        prod = np.exp(-lam * lags[:, None]) * dw_scaled[j0:j1]
        prod[0] += acc
        acc = np.cumsum(prod, axis=0)[-1]
    return acc


py_euler_endpoint = _euler_endpoint
py_euler_trajectory = _euler_trajectory

if _numba_disabled():
    BACKEND = "numpy"
    euler_endpoint = _euler_endpoint
    euler_trajectory = _euler_trajectory
else:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        BACKEND = "numpy"
        euler_endpoint = _euler_endpoint
        euler_trajectory = _euler_trajectory
    else:
        BACKEND = "numba"
        euler_endpoint = njit(cache=True)(_euler_endpoint)
        euler_trajectory = njit(cache=True)(_euler_trajectory)

_EMPTY_MAT = np.zeros((0, 0))


def empty_dst_matrix() -> np.ndarray:
    """Placeholder dst_mat for the F_ZERO / F_SCALED kinds."""
    return _EMPTY_MAT
