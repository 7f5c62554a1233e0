"""Hot inner loops: the implicit Euler sweep and discrete convolution sums.

The time-stepping loop has a hard sequential dependence, so per-step
overhead dominates once the mode count is small. ``euler_sweep`` is the one
sweep behind endpoints, trajectories and the regularity estimators: it
advances one sample (an (N,) state) or a block of samples (an (N, S)
state) and keeps only the states at the step indices a caller asks for.
For one sample its loop performs the same operations, in the same order,
as a plain per-step loop; a block turns each matrix-vector product into a
matrix-matrix product, whose results can differ from the per-sample ones
in the last bits. Everything here is plain numpy (``BACKEND``).

The stochastic convolution has no such dependence: ``convolution_endpoint``
is a contraction over fixed blocks of rows that adds the terms in the same
left-to-right order as the step-by-step sum.

Nonlinearity codes: F_ZERO, F_SCALED (u -> scale*u in coefficients), and
two forms of F = sin by collocation on the interior sine grid, with grid
scale ``dst_scale = sqrt(N+1)``: F_SIN multiplies by the dense symmetric
DST-I matrix ``dst_mat`` (O(N^2) per product), F_SIN_FFT calls
``scipy.fft.dst(type=1, norm="ortho")`` (O(N log N), no matrix). The two
agree to rounding (tested within 1e-12 relative), not bit for bit.
``solver.solve_stops`` picks F_SIN_FFT at N >= ``_FAST_SINE_MIN_MODES``
= 512 and F_SIN below it; the kind is fixed per sweep, so no step
branches on N. Measured per step on one thread (2-vCPU VM, numpy 2.4,
scipy 1.17), dense against fast: 28 against 107 us at N = 256, 126
against 38 us at N = 512, 731 against 64 us at N = 1024, 24.7 against
0.58 ms at N = 4096. scipy's DST-I runs an FFT of length 2(N+1), so it
is slow where N+1 has a large prime factor: below 512 the dense step
wins at most sizes; from 512 the fast step wins at most sizes, loses by
at most 1.3x at a few (N = 520, 572, 600) up to 613, and won at every
size checked from 614 to 699 and at 1021, 1031, 2039 and 4093. The
studies run N = 512 and 4096.
"""

import numpy as np
import scipy.fft

BACKEND = "numpy"

F_ZERO = 0
F_SCALED = 1
F_SIN = 2
F_SIN_FFT = 3

# Smallest mode count at which the F = sin sweep runs F_SIN_FFT.
_FAST_SINE_MIN_MODES = 512


def euler_sweep(x0, step_factor, tau, dw_scaled, f_kind, f_scale, dst_mat,
                dst_scale, stops):
    """Run implicit Euler steps, returning the states at steps ``stops``.

    x0 is (N,) for one sample or (N, S) for a block of S samples, and
    dw_scaled is (M, N) or (M, N, S): row m holds phi_n * dW_{n,m};
    dst_mat is read by F_SIN only (None for the other kinds). Per
    step: x <- step_factor * (x + tau*F(x) + dW), F explicit. ``stops``
    are nondecreasing step indices in [0, M]; the result stacks the state
    after each of them (step 0 is x0) into a (len(stops),) + x0.shape
    array. The loop runs segment by segment between stops.
    """
    stops = [int(k) for k in stops]
    if any(b < a for a, b in zip(stops, stops[1:])) or (
            stops and not 0 <= stops[0] <= stops[-1] <= dw_scaled.shape[0]):
        raise ValueError(f"stops must be nondecreasing in [0, "
                         f"{dw_scaled.shape[0]}], got {stops}")
    if f_kind not in (F_ZERO, F_SCALED, F_SIN, F_SIN_FFT):
        raise ValueError(f"unknown nonlinearity code {f_kind}")
    x = x0.copy()
    if x.ndim == 2:
        step_factor = step_factor.reshape(-1, 1)
    out = np.empty((len(stops),) + x.shape)
    start = 0
    for i, stop in enumerate(stops):
        steps = range(start, stop)
        if f_kind == F_ZERO:
            for m in steps:
                x = step_factor * (x + dw_scaled[m])
        elif f_kind == F_SCALED:
            for m in steps:
                x = step_factor * (x + tau * (f_scale * x) + dw_scaled[m])
        elif f_kind == F_SIN:
            for m in steps:
                u = dst_scale * np.dot(dst_mat, x)
                fx = np.dot(dst_mat, np.sin(u)) / dst_scale
                x = step_factor * (x + tau * fx + dw_scaled[m])
        else:
            for m in steps:
                u = dst_scale * _dst1(x)
                fx = _dst1(np.sin(u)) / dst_scale
                x = step_factor * (x + tau * fx + dw_scaled[m])
        out[i] = x
        start = stop
    return out


def _dst1(x):
    """Orthonormal DST-I along axis 0: sine_matrix(N) @ x in O(N log N)."""
    return scipy.fft.dst(x, type=1, norm="ortho", axis=0)


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
    if not 0 <= upto <= dw_scaled.shape[0]:
        raise ValueError(f"upto {upto} out of range [0, {dw_scaled.shape[0]}]")
    acc = np.zeros(lam.shape[0])
    t = upto * tau
    for j0 in range(0, upto, _CONV_BLOCK_ROWS):
        j1 = min(j0 + _CONV_BLOCK_ROWS, upto)
        lags = t - np.arange(j0, j1) * tau
        prod = np.exp(-lam * lags[:, None]) * dw_scaled[j0:j1]
        prod[0] += acc
        acc = np.cumsum(prod, axis=0)[-1]
    return acc
