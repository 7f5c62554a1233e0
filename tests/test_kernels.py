"""Kernels: the Euler sweep against an explicit per-step loop, its stops,
sample blocks and read-only inputs, and the numpy DST-I against scipy's
bit for bit and against the dense matrix to rounding."""

import numpy as np
import pytest

from fracspde import kernels
from oracles import sine_factors

RNG = np.random.default_rng(42)
F_KINDS = [kernels.F_ZERO, kernels.F_SIN, kernels.F_SIN_FFT]


def sweep_args(n_modes, m_steps, f_kind, samples=None):
    """Sweep arguments without ``stops``; a block of ``samples`` columns
    when given."""
    lam = (np.pi * np.arange(1, n_modes + 1)) ** 2
    tau = 1.0 / m_steps
    step_factor = 1.0 / (1.0 + tau * lam)
    tail = () if samples is None else (samples,)
    dw = RNG.standard_normal((m_steps, n_modes) + tail) * tau**0.75
    x0 = RNG.standard_normal((n_modes,) + tail)
    return (x0, step_factor, dw, f_kind,
            *sine_factors(f_kind, tau, step_factor))


def matrix_product(mat, x):
    """mat @ x as the sweep forms it: a one-column block as two copies of
    the column, so that BLAS runs gemm on it as on any wider block."""
    if x.shape[1:] == (1,):
        return np.dot(mat, np.repeat(x, 2, axis=1))[:, :1]
    return np.dot(mat, x)


def zero_tailed_im_rfft(x):
    """Im(rfft) along axis 0 of x written into rows 1..N of zeros of
    length 2(N+1): bins 1..N, half the odd extension's."""
    n = x.shape[0]
    ext = np.zeros((2 * n + 2,) + x.shape[1:])
    ext[1:n + 1] = x
    return np.fft.rfft(ext, axis=0).imag[1:n + 1]


def step_loop(x0, step_factor, dw, f_kind, sin_in, sin_out):
    """The scheme one step at a time, for one sample (x0 (N,)) or a block
    (x0 (N, S), each product a matrix-matrix one): all M+1 states. Both
    F = sin kinds run the folded step the sweep runs
    (oracles.unfolded_sin_sweep is the step they fold)."""
    f = step_factor.reshape((-1,) + (1,) * (x0.ndim - 1))
    states = [x0]
    x = x0
    for m in range(dw.shape[0]):
        if f_kind == kernels.F_ZERO:
            x = f * (x + dw[m])
        elif f_kind == kernels.F_SIN:
            x = f * (x + dw[m]) + matrix_product(
                sin_out, np.sin(matrix_product(sin_in, x)))
        else:
            u = np.sin(sin_in * zero_tailed_im_rfft(x))
            x = f * (x + dw[m]) + sin_out.reshape(f.shape) * \
                zero_tailed_im_rfft(u)
        states.append(x)
    return np.array(states)


def test_backend_reported():
    assert kernels.BACKEND == "numpy"


@pytest.mark.parametrize("f_kind", F_KINDS)
def test_endpoint_paths_agree(f_kind):
    args = sweep_args(12, 64, f_kind)
    out = kernels.euler_sweep(*args, (64,))
    assert out.shape == (1, 12)
    assert np.array_equal(out[0], step_loop(*args)[-1])


@pytest.mark.parametrize("f_kind", F_KINDS)
def test_trajectory_paths_agree(f_kind):
    args = sweep_args(6, 32, f_kind)
    out = kernels.euler_sweep(*args, range(33))
    assert out.shape == (33, 6)
    assert np.array_equal(out, step_loop(*args))


@pytest.mark.parametrize("f_kind", F_KINDS)
def test_stops_are_trajectory_rows(f_kind):
    args = sweep_args(6, 40, f_kind)
    full = kernels.euler_sweep(*args, range(41))
    for stops in ((0,), (40,), (8, 24, 32, 40), (0, 0, 5, 5, 40), ()):
        out = kernels.euler_sweep(*args, stops)
        assert out.shape == (len(stops), 6)
        assert np.array_equal(out, full[list(stops)]), stops


@pytest.mark.parametrize("f_kind", F_KINDS)
def test_block_matches_single_samples(f_kind):
    args = sweep_args(12, 64, f_kind, samples=5)
    x0, step_factor, dw = args[:3]
    stops = (0, 32, 48, 64)
    block = kernels.euler_sweep(*args, stops)
    assert block.shape == (4, 12, 5)
    for s in range(5):
        single = kernels.euler_sweep(x0[:, s].copy(), step_factor,
                                     np.ascontiguousarray(dw[:, :, s]),
                                     *args[3:], stops)
        err = np.max(np.abs(block[..., s] - single))
        assert err <= 1e-14 * np.max(np.abs(single)), (s, err)


@pytest.mark.parametrize("samples", [1, 3, 8])
@pytest.mark.parametrize("f_kind", F_KINDS)
def test_block_keeps_operation_order(f_kind, samples):
    """A block sweep runs the plain per-step block loop's operations in
    its order: every state agrees bit for bit, both F = sin forms too.
    At N = 32, x / sqrt(N+1) and x * (1 / sqrt(N+1)) differ in about
    half of the entries, so a reordered FFT step shows within 64 steps,
    as does a folded step that distributes the step factor over x + dW."""
    args = sweep_args(32, 64, f_kind, samples=samples)
    out = kernels.euler_sweep(*args, range(65))
    assert out.shape == (65, 32, samples)
    assert np.array_equal(out, step_loop(*args))


@pytest.mark.parametrize("n_modes", [8, 64, 511])
def test_one_column_block_equals_its_column_in_wider_blocks(n_modes):
    """A one-column dense F = sin sweep has the bits of that sample's
    column in a two-column block (OpenBLAS's gemv, which a one-column
    product would run, gives other bits than its gemm)."""
    args = sweep_args(n_modes, 32, kernels.F_SIN, samples=2)
    x0, step_factor, dw = args[:3]
    pair = kernels.euler_sweep(*args, (8, 32))
    for s in range(2):
        alone = kernels.euler_sweep(x0[:, s:s + 1].copy(), step_factor,
                                    np.ascontiguousarray(dw[:, :, s:s + 1]),
                                    *args[3:], (8, 32))
        assert np.array_equal(alone[..., 0], pair[..., s]), s


@pytest.mark.parametrize("stops", [(8, 4), (-1, 4), (4, 17)])
def test_sweep_rejects_bad_stops(stops):
    with pytest.raises(ValueError, match="stops"):
        kernels.euler_sweep(*sweep_args(3, 16, kernels.F_ZERO), stops)


def test_sweep_rejects_unknown_kind():
    args = list(sweep_args(3, 16, kernels.F_ZERO))
    args[3] = 4
    with pytest.raises(ValueError, match="nonlinearity code"):
        kernels.euler_sweep(*args, (16,))


@pytest.mark.parametrize("samples", [None, 3])
# ids 6 and 7 keep the case names from when the two matrices sat at those
# places in the sweep's arguments
@pytest.mark.parametrize("which", [4, 5], ids=["6", "7"])
@pytest.mark.parametrize("bad", [None, np.eye(11), np.eye(12)[:, :11]])
def test_dense_sine_rejects_wrong_matrices(bad, which, samples):
    args = list(sweep_args(12, 16, kernels.F_SIN, samples))
    args[which] = bad
    with pytest.raises(ValueError, match=r"\(12, 12\) sine matrices"):
        kernels.euler_sweep(*args, (16,))


@pytest.mark.parametrize("samples", [None, 4])
@pytest.mark.parametrize("n_modes", [300, 512, 1024])
def test_fast_sine_matches_dense(n_modes, samples):
    """The FFT sweep tracks the dense-matrix sweep to rounding, for one
    sample and for a block, at sizes on both sides of the switch."""
    dense_args = sweep_args(n_modes, 40, kernels.F_SIN, samples)
    step_factor = dense_args[1]
    fast_args = dense_args[:3] + (kernels.F_SIN_FFT, *sine_factors(
        kernels.F_SIN_FFT, 1.0 / 40, step_factor))
    stops = (0, 10, 40)
    dense = kernels.euler_sweep(*dense_args, stops)
    fast = kernels.euler_sweep(*fast_args, stops)
    assert fast.shape == dense.shape
    err = np.max(np.abs(fast - dense))
    assert err <= 1e-12 * np.max(np.abs(dense)), err


DST_SIZES = list(range(1, 131)) + [255, 256, 511, 512, 513, 520, 600, 1023,
                                    1024, 4096]


def test_dst1_matches_scipy_bit_for_bit():
    """The numpy DST-I equals scipy's orthonormal DST-I in every bit, for
    one vector, along axis 0 of an (N, S) block and along the last axis
    of an (S, N) block."""
    sfft = pytest.importorskip("scipy.fft")
    for n in DST_SIZES:
        x = RNG.standard_normal(n)
        block = RNG.standard_normal((n, 3))
        rows = np.ascontiguousarray(block.T)
        assert np.array_equal(kernels._dst1(x),
                              sfft.dst(x, type=1, norm="ortho")), n
        assert np.array_equal(kernels._dst1(block),
                              sfft.dst(block, type=1, norm="ortho",
                                       axis=0)), n
        assert np.array_equal(kernels._dst1(rows, axis=-1),
                              sfft.dst(rows, type=1, norm="ortho")), n


@pytest.mark.parametrize("samples", [None, 3])
@pytest.mark.parametrize("f_kind", F_KINDS)
def test_sweep_leaves_inputs_unchanged(f_kind, samples):
    n_modes = 512 if f_kind == kernels.F_SIN_FFT else 12
    args = sweep_args(n_modes, 16, f_kind, samples)
    x0, step_factor, dw, _, sin_in, sin_out = args
    inputs = [x0, step_factor, dw] + [a for a in (sin_in, sin_out)
                                      if isinstance(a, np.ndarray)]
    copies = [a.copy() for a in inputs]
    kernels.euler_sweep(*args, (0, 8, 16))
    for before, after in zip(copies, inputs):
        assert np.array_equal(before, after)

