"""Backend kernels: the Euler sweeps' active (numba or numpy) path vs
their pure-python path, and the blocked convolution vs the step-by-step
sum it must reproduce bit for bit."""

import math
import os

import numpy as np
import pytest

from fracspde import kernels
from fracspde.spectral import sine_matrix

RNG = np.random.default_rng(42)


def sweep_args(n_modes, m_steps, f_kind):
    lam = (np.pi * np.arange(1, n_modes + 1)) ** 2
    tau = 1.0 / m_steps
    step_factor = 1.0 / (1.0 + tau * lam)
    dw = RNG.standard_normal((m_steps, n_modes)) * tau**0.75
    x0 = RNG.standard_normal(n_modes)
    if f_kind == kernels.F_SIN:
        mat = np.ascontiguousarray(sine_matrix(n_modes))
        scale = math.sqrt(n_modes + 1)
    else:
        mat = kernels.empty_dst_matrix()
        scale = 1.0
    return x0, step_factor, tau, dw, f_kind, 1.0, mat, scale


def test_backend_reported():
    assert kernels.BACKEND in ("numba", "numpy")
    if os.environ.get("FRACSPDE_DISABLE_NUMBA", "").strip().lower() in (
        "1", "true", "yes"
    ):
        assert kernels.BACKEND == "numpy"


@pytest.mark.parametrize("f_kind",
                         [kernels.F_ZERO, kernels.F_SCALED, kernels.F_SIN])
def test_endpoint_paths_agree(f_kind):
    args = sweep_args(12, 64, f_kind)
    fast = kernels.euler_endpoint(*args)
    slow = kernels.py_euler_endpoint(*args)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("f_kind",
                         [kernels.F_ZERO, kernels.F_SCALED, kernels.F_SIN])
def test_trajectory_paths_agree(f_kind):
    args = sweep_args(6, 32, f_kind)
    fast = kernels.euler_trajectory(*args)
    slow = kernels.py_euler_trajectory(*args)
    assert fast.shape == (33, 6)
    np.testing.assert_allclose(fast, slow, rtol=1e-12, atol=1e-14)
    np.testing.assert_allclose(fast[-1], kernels.euler_endpoint(*args),
                               rtol=1e-13)


def sequential_convolution(lam, dw, tau, upto):
    """The convolution sum accumulated one step at a time, left to right."""
    acc = np.zeros(lam.shape[0])
    t = upto * tau
    for j in range(upto):
        acc += np.exp(-lam * (t - j * tau)) * dw[j]
    return acc


def convolution_cases():
    block = kernels._CONV_BLOCK_ROWS
    uptos = (0, 1, block - 1, block, block + 1, 5 * block // 2)
    for n_modes in (1, 3, 16):
        lam = (np.pi * np.arange(1, n_modes + 1)) ** 2
        dw = RNG.standard_normal((uptos[-1], n_modes)) * 1e-2
        for upto in uptos:
            yield lam, dw, 1.0 / uptos[-1], upto


def test_convolution_matches_sequential_loop():
    for lam, dw, tau, upto in convolution_cases():
        out = kernels.convolution_endpoint(lam, dw, tau, upto)
        expected = sequential_convolution(lam, dw, tau, upto)
        assert np.array_equal(out, expected), (lam.size, upto)


@pytest.mark.parametrize("block", [1, 7, 1000, 100000])
def test_convolution_block_size_invariant(block, monkeypatch):
    cases = list(convolution_cases())
    monkeypatch.setattr(kernels, "_CONV_BLOCK_ROWS", block)
    for lam, dw, tau, upto in cases:
        out = kernels.convolution_endpoint(lam, dw, tau, upto)
        expected = sequential_convolution(lam, dw, tau, upto)
        assert np.array_equal(out, expected), (lam.size, upto)
