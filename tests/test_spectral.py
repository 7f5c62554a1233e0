"""Spectral calculus: operator, semigroup and step factor as the solver
applies them, transforms, norms."""

import math

import numpy as np
import pytest

from fracspde import fbm, kernels, solver
from fracspde.fbm import CylindricalFbmSample, HurstParameter, IncrementGrid
from fracspde.solver import (
    SolverConfig,
    linear_mild_reference,
    restrict_config,
    solve_endpoint,
)
from fracspde.spectral import (
    DiagonalNoiseOperator,
    NemytskiiMap,
    SpectralOperator,
    SpectralState,
    dirichlet_laplacian,
    identity_noise,
    sine_map,
    sine_matrix,
    sine_transform,
    trace_class_noise,
    zero_map,
    zero_noise,
)
from oracles import (
    apply_nemytskii,
    inverse_sine_transform,
    l2_norm,
    sobolev_norm,
)

RNG = np.random.default_rng(20240810)


def unit_state(n, mode):
    c = np.zeros(n)
    c[mode] = 1.0
    return SpectralState(coeffs=c)


class TestDirichletLaplacian:
    def test_first_eigenvalues(self):
        op = dirichlet_laplacian(4)
        assert op.eigenvalues[0] == pytest.approx(math.pi**2, rel=1e-15)
        assert op.eigenvalues[1] == pytest.approx(4 * math.pi**2, rel=1e-15)

    def test_monotone(self):
        op = dirichlet_laplacian(50)
        assert np.all(np.diff(op.eigenvalues) > 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dirichlet_laplacian(0)

    def test_custom_operator_validation(self):
        with pytest.raises(ValueError):
            SpectralOperator(eigenvalues=np.array([2.0, 1.0]))
        with pytest.raises(ValueError):
            SpectralOperator(eigenvalues=np.array([0.0, 1.0]))


def noise_free(op, t, x):
    """A one-step, noise-free problem on horizon t from state x, with a
    zero noise sample on its grid."""
    n = x.n_modes
    cfg = SolverConfig(
        n_modes=n, m_steps=1, horizon=t, hurst=HurstParameter(0.75),
        operator=op, noise=zero_noise(n), nonlinearity=zero_map(),
        initial=x, base_seed=0,
    )
    sample = CylindricalFbmSample(
        grid=IncrementGrid(m_steps=1, tau=t), values=np.zeros((n, 1)),
        hurst=cfg.hurst, base_seed=0, method="circulant",
    )
    return cfg, sample


def semigroup(op, t, x):
    """E(t) x as the F = 0 oracle applies it: the deterministic part of
    linear_mild_reference."""
    return linear_mild_reference(*noise_free(op, t, x))


def step_factors(op, tau):
    """R(tau lambda_n) = 1/(1 + tau lambda_n) as the scheme applies it:
    one noise-free F = 0 step from the all-ones state."""
    x = SpectralState(coeffs=np.ones(op.n_modes))
    return solve_endpoint(*noise_free(op, tau, x)).coeffs


class TestSemigroup:
    def test_single_mode_factor(self):
        op = dirichlet_laplacian(1)
        out = semigroup(op, 0.1, unit_state(1, 0))
        assert out.coeffs[0] == pytest.approx(0.37270783885343794, rel=1e-14)

    def test_semigroup_property(self):
        op = dirichlet_laplacian(6)
        x = SpectralState(coeffs=RNG.standard_normal(6))
        a = semigroup(op, 0.02, semigroup(op, 0.01, x))
        b = semigroup(op, 0.03, x)
        np.testing.assert_allclose(a.coeffs, b.coeffs, rtol=1e-14)

    def test_contraction(self):
        op = dirichlet_laplacian(6)
        x = SpectralState(coeffs=RNG.standard_normal(6))
        assert l2_norm(semigroup(op, 0.4, x)) <= l2_norm(x)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            semigroup(dirichlet_laplacian(2), -0.1, unit_state(2, 0))

    @pytest.mark.parametrize("gamma", [0.25, 0.5, 1.0])
    @pytest.mark.parametrize("t", [1e-3, 1e-2, 1e-1])
    def test_smoothing_inequality(self, gamma, t):
        # ||A^g E(t) x|| <= (g/e)^g t^-g ||x||, (g/e)^g = sup z^g e^-z
        op = dirichlet_laplacian(40)
        x = SpectralState(coeffs=RNG.standard_normal(40))
        y = sobolev_norm(op, 2.0 * gamma, semigroup(op, t, x))
        bound = (gamma / math.e) ** gamma * t ** (-gamma) * l2_norm(x)
        assert y <= bound * (1 + 1e-12)


class TestRationalFactor:
    def test_values(self):
        op = dirichlet_laplacian(1)
        assert step_factors(op, 0.01)[0] == pytest.approx(
            0.9101698376462755, rel=1e-14
        )
        flat = SpectralOperator(eigenvalues=np.array([1.0]))
        assert step_factors(flat, 1.0)[0] == 0.5

    def test_in_unit_interval_and_decreasing(self):
        op = dirichlet_laplacian(30)
        f = step_factors(op, 0.05)
        assert np.all((f > 0) & (f < 1))
        assert np.all(np.diff(f) < 0)

    def test_stability_bound(self):
        # 1/(1+z) <= e^{-z/2} on [0,1]
        z = np.linspace(0.0, 1.0, 10001)
        assert np.all(1.0 / (1.0 + z) <= np.exp(-z / 2) + 1e-15)

    def test_accuracy_bound(self):
        # |1/(1+z) - e^{-z}| <= z^2/2 on [0,1]
        z = np.linspace(0.0, 1.0, 10001)
        assert np.all(np.abs(1.0 / (1.0 + z) - np.exp(-z)) <= z**2 / 2 + 1e-15)


class TestProjection:
    """P_N keeps the first N coefficients: a config restricted to N modes
    (the spatial ladder's coupling) reads the template's prefix."""

    def test_too_large_rejected(self):
        cfg, _ = noise_free(dirichlet_laplacian(3), 0.1, unit_state(3, 0))
        with pytest.raises(ValueError, match="n_modes=4"):
            restrict_config(cfg, n_modes=4)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_sharpness_on_eigenvectors(self, alpha):
        # ||(P_N - I) e_{N+1}|| = lambda_{N+1}^{-a/2} ||e_{N+1}||_a exactly
        op = dirichlet_laplacian(8)
        n_keep = 5
        x = unit_state(8, n_keep)  # mode index n_keep+1
        tail = x.coeffs.copy()
        tail[:n_keep] = 0.0  # the spatial study's ref - P_N ref
        lost = float(np.linalg.norm(tail))
        bound = op.eigenvalues[n_keep] ** (-alpha / 2) * sobolev_norm(
            op, alpha, x
        )
        assert lost == pytest.approx(bound, rel=1e-12)


class TestNoiseOperators:
    def test_identity_amplitudes(self):
        noise = identity_noise(5)
        assert np.all(noise.amplitudes == 1.0)
        assert noise.beta == 0.5

    def test_trace_class_amplitudes(self):
        noise = trace_class_noise(4)
        assert noise.amplitudes[0] == 0.0
        assert noise.amplitudes[1] == pytest.approx(1.0201394465967895,
                                                    rel=1e-14)
        assert noise.beta == 1.0

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            DiagonalNoiseOperator(amplitudes=np.array([-1.0]), beta=1.0)


class TestSineTransform:
    @pytest.mark.parametrize("n", [1, 7, 64, 127])
    def test_round_trip(self, n):
        c = RNG.standard_normal(n)
        back = inverse_sine_transform(sine_transform(c))
        np.testing.assert_allclose(back, c, rtol=1e-12, atol=1e-12)

    def test_single_mode_value(self):
        # coeff 1 on mode 1 with N = 1: u(1/2) = sqrt(2) sin(pi/2)
        u = sine_transform(np.array([1.0]))
        assert u[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)

    @pytest.mark.parametrize("n", [1, 7, 64, 127])
    def test_parseval_with_grid_weight(self, n):
        c = RNG.standard_normal(n)
        u = sine_transform(c)
        assert np.sum(u**2) / (n + 1) == pytest.approx(np.sum(c**2),
                                                       rel=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 64, 127])
    def test_matches_dense_matrix_oracle(self, n):
        c = RNG.standard_normal(n)
        fast = sine_transform(c)
        dense = math.sqrt(n + 1) * (sine_matrix(n) @ c)
        np.testing.assert_allclose(fast, dense, rtol=1e-12, atol=1e-12)

    def test_sine_matrix_involutory(self):
        s = sine_matrix(9)
        np.testing.assert_allclose(s @ s, np.eye(9), atol=1e-13)

    def test_sine_operators_cached_read_only_and_clearable(self):
        n = 511
        fbm.clear_caches()
        mat, sin_in = solver._sine_operators(n)
        j = np.arange(1, n + 1)
        old = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(j, j)
                                              / (n + 1))
        assert np.array_equal(mat, old)
        assert np.array_equal(sin_in, math.sqrt(n + 1) * old)
        assert not mat.flags.writeable and not sin_in.flags.writeable
        assert solver._sine_operators(n)[1] is sin_in
        assert solver._sine_operators.cache_info().currsize == 1
        fbm.clear_caches()
        assert solver._sine_operators.cache_info().currsize == 0
        assert solver._sine_operators(n)[1] is not sin_in


class TestNemytskii:
    def test_zero_map(self):
        x = SpectralState(coeffs=RNG.standard_normal(5))
        assert np.all(apply_nemytskii(zero_map(), x).coeffs == 0.0)

    def test_retired_scaled_identity_rejected(self):
        # F = u -> s u is retired: no map builds it, and the sweep refuses
        # its code
        with pytest.raises(ValueError, match="unknown nonlinearity kind "
                                             "'identity_scaled'"):
            NemytskiiMap(kind="identity_scaled")
        with pytest.raises(ValueError, match="unknown nonlinearity code 1"):
            kernels.euler_sweep(np.zeros(3), np.ones(3), np.zeros((4, 3)),
                                kernels.F_SCALED, None, None, (4,))

    def test_sin_of_zero(self):
        x = SpectralState(coeffs=np.zeros(8))
        assert np.all(apply_nemytskii(sine_map(), x).coeffs == 0.0)

    def test_sin_linearizes_for_small_input(self):
        eps = 1e-6
        x = SpectralState(coeffs=np.concatenate([[eps], np.zeros(7)]))
        out = apply_nemytskii(sine_map(), x)
        assert abs(out.coeffs[0] - eps) < 1e-12
        assert np.abs(out.coeffs[1:]).max() < 1e-12

    def test_sin_lipschitz_probe(self):
        # sin is 1-Lipschitz, and so is F = sin on the sine grid
        f = sine_map()
        op_n = 16
        for _ in range(25):
            a = SpectralState(coeffs=RNG.standard_normal(op_n))
            b = SpectralState(coeffs=RNG.standard_normal(op_n))
            fa = apply_nemytskii(f, a).coeffs
            fb = apply_nemytskii(f, b).coeffs
            lhs = np.linalg.norm(fa - fb)
            rhs = np.linalg.norm(a.coeffs - b.coeffs)
            assert lhs <= rhs * (1 + 1e-12)


class TestNorms:
    def test_unit_vector(self):
        assert l2_norm(unit_state(5, 2)) == 1.0

    def test_sobolev_zero_is_l2(self):
        op = dirichlet_laplacian(5)
        x = SpectralState(coeffs=RNG.standard_normal(5))
        assert sobolev_norm(op, 0.0, x) == l2_norm(x)

    def test_mode_two_delta_one(self):
        # ||e_2||_1 = lambda_2^{1/2} = 2 pi for the Dirichlet Laplacian
        op = dirichlet_laplacian(3)
        assert sobolev_norm(op, 1.0, unit_state(3, 1)) == pytest.approx(
            6.283185307179586, rel=1e-14
        )

    def test_mode_two_delta_half(self):
        op = dirichlet_laplacian(3)
        assert sobolev_norm(op, 0.5, unit_state(3, 1)) == pytest.approx(
            2.5066282746310002, rel=1e-14
        )


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("build, field", [
    (lambda: SpectralOperator(eigenvalues=[1.0, NAN]), "eigenvalues"),
    (lambda: SpectralOperator(eigenvalues=[NAN, 2.0]), "eigenvalues"),
    (lambda: SpectralOperator(eigenvalues=[1.0, INF]), "eigenvalues"),
    (lambda: DiagonalNoiseOperator(amplitudes=[1.0, NAN], beta=1.0),
     "amplitudes"),
    (lambda: DiagonalNoiseOperator(amplitudes=[INF], beta=1.0),
     "amplitudes"),
    (lambda: DiagonalNoiseOperator(amplitudes=[1.0], beta=-INF), "beta"),
    (lambda: DiagonalNoiseOperator(amplitudes=[1.0], beta=NAN), "beta"),
    (lambda: SpectralState(coeffs=[0.5, NAN]), "coeffs"),
    (lambda: SpectralState(coeffs=[-INF]), "coeffs"),
], ids=["eig-nan", "eig-nan-first", "eig-inf", "amp-nan", "amp-inf",
        "beta-neg-inf", "beta-nan", "coeffs-nan", "coeffs-inf"])
def test_non_finite_input_rejected_by_name(build, field):
    # a non-finite field is refused where it is given, not found later
    # as a non-finite state of the run
    with pytest.raises(ValueError, match=f"{field} must be"):
        build()
