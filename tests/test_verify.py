"""Analytic-identity checks and the exact linear-scheme oracle."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fracspde import experiments, fbm, kernels, solver, verify
from fracspde.experiments import fit_slope, rms_error, she_problem
from fracspde.fbm import (
    CylindricalFbmSample,
    HurstParameter,
    IncrementGrid,
    generate_cylindrical_fbm,
    increment_covariance,
    increment_rows,
    mode_keys,
)
from fracspde.rng import SAMPLE_STREAM, derive_seed
from fracspde.solver import (
    SolverConfig,
    restrict_config,
    solve_endpoint,
)
from fracspde.spectral import (
    SpectralState,
    dirichlet_laplacian,
    identity_noise,
    trace_class_noise,
    zero_map,
    zero_noise,
)
from fracspde.verify import (
    check_ito_isometry,
    check_lambda_phi_bound,
    check_phi_cell_integral,
    estimate_space_regularity,
    estimate_time_regularity,
    expected_increment_rms,
    expected_mild_rms_errors,
    expected_rms_errors,
    expected_sobolev_rms,
    isometry_analytic_rhs,
    linear_endpoint_moments,
)
from oracles import (
    _block_increments,
    increment_covariance_matrix,
    nan_draws,
    toeplitz_bilinear,
)

H_VALUES = [0.55, 0.75, 0.95]
H = HurstParameter(0.75)


def temporal_rungs(cfg, ladder):
    """Rungs (N, M // m) of a temporal ladder of step counts m."""
    return [(cfg.n_modes, cfg.m_steps // m) for m in ladder]


def linear_config(n, m, noise, horizon=1.0, seed=3, initial=None):
    coeffs = initial if initial is not None else np.concatenate(
        [[2**-0.5], np.zeros(n - 1)]
    )
    return SolverConfig(
        n_modes=n, m_steps=m, horizon=horizon, hurst=H,
        operator=dirichlet_laplacian(n), noise=noise,
        nonlinearity=zero_map(), initial=SpectralState(coeffs=coeffs),
        base_seed=seed,
    )


class TestPhiCells:
    @pytest.mark.parametrize("h", H_VALUES)
    def test_diagonal_is_one(self, h):
        cell = check_phi_cell_integral(4, 4, HurstParameter(h))
        assert cell.analytic == 1.0
        assert cell.quadrature is None

    def test_lag_one_frozen_value(self):
        cell = check_phi_cell_integral(2, 1, H)
        assert cell.analytic == pytest.approx(0.41421356237309515, rel=1e-15)
        assert cell.quadrature == pytest.approx(cell.analytic, rel=1e-6)

    @pytest.mark.parametrize("h", H_VALUES)
    @pytest.mark.parametrize("k", range(1, 11))
    def test_quadrature_matches_closed_form(self, h, k):
        cell = check_phi_cell_integral(1 + k, 1, HurstParameter(h))
        assert cell.quadrature == pytest.approx(cell.analytic, rel=1e-6)

    @pytest.mark.parametrize("h", H_VALUES)
    @pytest.mark.parametrize("k", range(1, 11))
    def test_offdiagonal_bound(self, h, k):
        cell = check_phi_cell_integral(1 + k, 1, HurstParameter(h))
        assert cell.analytic <= cell.bound + 1e-15

    def test_bound_has_slack_at_large_offset(self):
        cell = check_phi_cell_integral(5, 0, H)
        assert cell.bound == pytest.approx(0.5 * 5**0.5, rel=1e-15)
        assert cell.analytic < 0.2 * cell.bound

    def test_isometry_consistency_with_increment_covariance(self):
        # tau-cell integral = tau^{2H} * unit cell; matches E[dw_i dw_j]
        grid = IncrementGrid(m_steps=12, tau=0.25)
        for h in map(HurstParameter, H_VALUES):
            sc = 0.25 ** (2 * h.h)
            for i, j in ((0, 1), (2, 7), (11, 1)):
                cell = check_phi_cell_integral(i, j, h)
                assert sc * cell.quadrature == pytest.approx(
                    increment_covariance(i, j, grid, h), rel=1e-6
                )


class TestLambdaPhi:
    def test_plateau_value_is_h_gamma_2h(self):
        # kappa = 0 plateau equals the stationary fractional-OU constant
        val = check_lambda_phi_bound(1e4, 10.0, 0, 0, H)
        assert val == pytest.approx(0.6646701940895685, rel=1e-8)

    @pytest.mark.parametrize("kappas", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_decade_ratios_at_unit_horizon(self, kappas):
        k1, k2 = kappas
        vals = [check_lambda_phi_bound(lam, 1.0, k1, k2, H)
                for lam in (10.0, 100.0, 1000.0, 10000.0)]
        for a, b in zip(vals, vals[1:]):
            assert b <= 2.0 * a
        assert vals[-1] <= 2.0 * vals[0]

    @pytest.mark.parametrize("kappas", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_bounded_across_horizons(self, kappas):
        k1, k2 = kappas
        cap = check_lambda_phi_bound(1e4, 10.0, k1, k2, H)
        for t in (0.1, 1.0, 10.0):
            for lam in (1.0, 10.0, 100.0, 1000.0, 10000.0):
                assert check_lambda_phi_bound(lam, t, k1, k2, H) <= cap * (
                    1 + 1e-9
                )

    def test_small_lambda_t_regime(self):
        # lambda*t << 1: scaled value ~ (lambda t)^{2H}, hence tiny
        val = check_lambda_phi_bound(1.0, 0.01, 0, 0, H)
        assert val < (0.01) ** 1.5 * 2

    def test_symmetry_in_kappas(self):
        a = check_lambda_phi_bound(100.0, 1.0, 0, 1, H)
        b = check_lambda_phi_bound(100.0, 1.0, 1, 0, H)
        assert a == pytest.approx(b, rel=1e-14)


class TestItoIsometry:
    def test_single_interval_single_mode(self):
        grid = IncrementGrid(m_steps=1, tau=0.5)
        psis = [np.array([[2.0]])]
        assert isometry_analytic_rhs(psis, grid, H) == pytest.approx(
            4.0 * 0.5**1.5, rel=1e-14
        )
        check = check_ito_isometry(psis, grid, H, samples=4000, seed=71)
        assert abs(check.mc_lhs - check.analytic_rhs) < 3 * check.std_error

    def test_two_intervals_telescoping(self):
        # Psi = (1, 1) on two unit intervals: analytic = (2)^{2H}
        grid = IncrementGrid(m_steps=2, tau=1.0)
        psis = [np.array([[1.0]]), np.array([[1.0]])]
        assert isometry_analytic_rhs(psis, grid, H) == pytest.approx(
            2.0**1.5, rel=1e-14
        )

    def test_zero_integrand(self):
        grid = IncrementGrid(m_steps=3, tau=0.5)
        psis = [np.zeros((2, 2))] * 3
        check = check_ito_isometry(psis, grid, H, samples=100, seed=4)
        assert check.mc_lhs == 0.0
        assert check.analytic_rhs == 0.0

    @pytest.mark.parametrize("trial", range(5))
    def test_randomized_integrands(self, trial):
        rng = np.random.default_rng(1000 + trial)
        grid = IncrementGrid(m_steps=5, tau=0.3)
        psis = [rng.standard_normal((3, 2)) for _ in range(5)]
        check = check_ito_isometry(psis, grid, H, samples=4000,
                                   seed=500 + trial)
        assert abs(check.mc_lhs - check.analytic_rhs) < 3 * check.std_error

    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    def test_batches_equal_per_sample_loop(self, method, monkeypatch):
        # normals of 15 circulant rows (30 Cholesky rows) per chunk: with 2
        # modes a chunk holds 7 (15) whole samples, and the last chunk of
        # 31 samples is partial
        monkeypatch.setattr(fbm, "_ROW_CHUNK_BYTES", 15 * 8 * 2 * 4)
        grid = IncrementGrid(m_steps=4, tau=0.25)
        psis = [np.random.default_rng(i).standard_normal((3, 2))
                for i in range(4)]
        stacked = np.stack(psis)
        sq = []
        for s in range(31):
            noise = generate_cylindrical_fbm(
                2, grid, H, derive_seed(88, SAMPLE_STREAM, s), method)
            v = np.einsum("idk,ki->d", stacked, noise.values)
            sq.append(v @ v)
        check = check_ito_isometry(psis, grid, H, 31, 88, method)
        assert check.mc_lhs == float(np.mean(sq))
        assert check.std_error == float(np.std(sq, ddof=1) / np.sqrt(31))

    @pytest.mark.parametrize("method", ["cholesky", "circulant"])
    def test_same_check_for_any_block_size(self, method, monkeypatch):
        # 31 samples of 2 modes on 4 steps: one block at the default size,
        # then blocks of 1 and of 7 (the last one partial); each sampler
        # call draws one block's sample-major keys, so the draw's memory
        # does not grow with the sample count
        grid = IncrementGrid(m_steps=4, tau=0.25)
        psis = [np.random.default_rng(i).standard_normal((3, 2))
                for i in range(4)]
        draw = verify.increment_rows
        checks = []
        for block in (31, 1, 7):
            if block != 31:
                monkeypatch.setattr(solver, "_BLOCK_BYTES", block * 8 * 2 * 4)
            keys = []
            monkeypatch.setattr(
                verify, "increment_rows",
                lambda *a: keys.append(np.shape(a[2])) or draw(*a))
            checks.append(check_ito_isometry(psis, grid, H, 31, 88, method))
            assert keys == [(min(block, 31 - lo), 2)
                            for lo in range(0, 31, block)]
        assert checks[1] == checks[0] and checks[2] == checks[0]

    @pytest.mark.parametrize("psis, match", [
        ([np.ones((2, 3))] * 5, "one integrand matrix per grid interval"),
        ([np.ones(3)] * 6, "must be 2-d"),
        ([np.ones((2, 3))] * 5 + [np.ones(3)], "must be 2-d"),
        ([np.ones((2, 0))] * 6, "at least one noise column"),
    ])
    def test_bad_integrands_rejected_before_any_draw(self, psis, match,
                                                     monkeypatch):
        draws = []
        monkeypatch.setattr(verify, "increment_rows",
                            lambda *a: draws.append(a))
        grid = IncrementGrid(m_steps=6, tau=0.25)
        with pytest.raises(ValueError, match=match):
            check_ito_isometry(psis, grid, H, samples=10, seed=3)
        with pytest.raises(ValueError, match=match):
            isometry_analytic_rhs(psis, grid, H)
        assert draws == []


class TestPowerLawFit:
    def test_exact_power_law(self):
        lags = np.array([1.0, 2.0, 4.0, 8.0])
        assert fit_slope(lags, lags**0.73)[0] == pytest.approx(
            0.73, abs=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_slope(np.array([1.0, 2.0, 4.0]), np.array([1.0, 0.0, 1.0]))

    def test_rejects_one_distinct_abscissa(self):
        with pytest.raises(ValueError, match="2 distinct abscissae"):
            fit_slope(np.full(3, 0.125), np.array([1.0, 2.0, 4.0]))


class TestLinearOracles:
    def test_toeplitz_bilinear_matches_dense(self):
        rng = np.random.default_rng(3)
        gamma = increment_covariance_matrix(IncrementGrid(20, 0.3), H)[0]
        idx = np.arange(20)
        dense = gamma[np.abs(idx[:, None] - idx[None, :])]
        for _ in range(3):
            u, v = rng.standard_normal((2, 20))
            assert toeplitz_bilinear(gamma, u, v) == pytest.approx(
                u @ dense @ v, rel=1e-12
            )

    def test_moments_against_iterated_sum(self):
        # dense covariance of the explicit weight vector, independently
        cfg = linear_config(3, 6, identity_noise(3))
        means, variances = linear_endpoint_moments(cfg)
        r = 1.0 / (1.0 + cfg.tau * cfg.operator.eigenvalues)
        gamma_mat = increment_covariance_matrix(cfg.grid(), H)
        for n in range(3):
            w = r[n] ** np.arange(6, 0, -1)
            assert variances[n] == pytest.approx(w @ gamma_mat @ w,
                                                 rel=1e-12)
            assert means[n] == pytest.approx(
                r[n] ** 6 * cfg.initial.coeffs[n], rel=1e-14
            )

    def test_moments_against_monte_carlo(self):
        cfg = linear_config(4, 16, trace_class_noise(4), seed=41)
        _, variances = linear_endpoint_moments(cfg)
        n_samples = 3000
        seeds = derive_seed(41, SAMPLE_STREAM, np.arange(n_samples))
        # rows[s] is generate_cylindrical_fbm(4, cfg.grid(), H,
        # seeds[s]).values
        rows = increment_rows(cfg.grid(), H, mode_keys(seeds, 4).T.ravel()
                              ).reshape(n_samples, 4, 16)
        ends = np.array([
            solve_endpoint(cfg, CylindricalFbmSample(
                grid=cfg.grid(), values=rows[s])).coeffs
            for s in range(n_samples)
        ])
        emp = ends.var(axis=0)
        se = variances * math.sqrt(2.0 / n_samples)
        assert np.all(np.abs(emp[1:] - variances[1:]) < 4 * se[1:])

    def test_spatial_errors_nested_tail(self):
        cfg = linear_config(8, 10, identity_noise(8))
        errs = expected_rms_errors(cfg, [(2, 1), (4, 1)])
        means, variances = linear_endpoint_moments(cfg)
        second = means**2 + variances
        assert errs[0] == pytest.approx(math.sqrt(second[2:].sum()),
                                        rel=1e-12)
        assert errs[1] == pytest.approx(math.sqrt(second[4:].sum()),
                                        rel=1e-12)

    def test_temporal_errors_against_monte_carlo(self):
        from fracspde.fbm import aggregate_cylindrical

        cfg = linear_config(6, 64, identity_noise(6), seed=97)
        ladder = [8, 16]
        oracle = expected_rms_errors(cfg, temporal_rungs(cfg, ladder))
        n_samples = 4000
        seeds = derive_seed(97, SAMPLE_STREAM, np.arange(n_samples))
        # rows[s] is generate_cylindrical_fbm(6, cfg.grid(), H,
        # seeds[s]).values
        rows = increment_rows(cfg.grid(), H, mode_keys(seeds, 6).T.ravel()
                              ).reshape(n_samples, 6, 64)
        sq = np.zeros((n_samples, len(ladder)))
        for s in range(n_samples):
            fine = CylindricalFbmSample(grid=cfg.grid(), values=rows[s])
            ref = solve_endpoint(cfg, fine).coeffs
            for i, m in enumerate(ladder):
                agg = aggregate_cylindrical(fine, 64 // m)
                end = solve_endpoint(restrict_config(cfg, m_steps=m),
                                     agg).coeffs
                sq[s, i] = np.sum((ref - end) ** 2)
        mc = sq.mean(axis=0)
        se = sq.std(axis=0, ddof=1) / math.sqrt(n_samples)
        assert np.all(np.abs(mc - oracle**2) < 3.5 * se)

    def test_increment_rms_zero_noise_matches_decay(self):
        cfg = linear_config(3, 32, zero_noise(3),
                            initial=np.array([1.0, 0.5, -0.2]))
        vals = expected_increment_rms(cfg, [4, 8], 0.0)
        r = 1.0 / (1.0 + cfg.tau * cfg.operator.eigenvalues)
        for lag, val in zip((4, 8), vals):
            diff = (r**32 - r ** (32 - lag)) * cfg.initial.coeffs
            assert val == pytest.approx(np.linalg.norm(diff), rel=1e-12)

    def test_sobolev_rms_zero_noise(self):
        cfg = linear_config(3, 16, zero_noise(3),
                            initial=np.array([1.0, 0.5, -0.2]))
        r = 1.0 / (1.0 + cfg.tau * cfg.operator.eigenvalues)
        lam = cfg.operator.eigenvalues
        expected = math.sqrt(np.sum(lam * (r**16 * cfg.initial.coeffs) ** 2))
        assert expected_sobolev_rms(cfg, 1.0) == pytest.approx(expected,
                                                               rel=1e-12)


class TestOraclesAgainstToeplitzBilinear:
    """Every F = 0 oracle, summed again with toeplitz_bilinear.

    The oracles evaluate their quadratic forms with one shared FFT form;
    these references spell each sum out mode by mode. Both presets: the
    trace-class one has a zero-amplitude first mode.
    """

    PRESETS = ("she-trace", "she-identity")
    RTOL = 1e-12

    @staticmethod
    def parts(preset, m_steps=48):
        cfg = she_problem(preset, n_modes=6, m_steps=m_steps, base_seed=5,
                          with_nonlinearity=False)
        n = cfg.n_modes
        gamma = increment_covariance_matrix(cfg.grid(), cfg.hurst)[0]
        return (cfg, cfg.operator.eigenvalues[:n], cfg.noise.amplitudes[:n],
                cfg.initial.coeffs[:n], gamma)

    @staticmethod
    def coarse_errors(cfg, lam, phi, xi, gamma, ladder, w_ref, decay_ref):
        m_fine = cfg.m_steps
        out = []
        for m in ladder:
            q = m_fine // m
            err2 = 0.0
            for i in range(lam.size):
                r_c = 1.0 / (1.0 + cfg.tau * q * lam[i])
                w_c = np.repeat(r_c ** np.arange(m, 0, -1), q)
                d = phi[i] * (w_ref[i] - w_c)
                err2 += (toeplitz_bilinear(gamma, d, d)
                         + ((decay_ref[i] - r_c**m) * xi[i]) ** 2)
            out.append(math.sqrt(err2))
        return np.array(out)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_endpoint_moments(self, preset):
        cfg, lam, phi, xi, gamma = self.parts(preset)
        m = cfg.m_steps
        r = 1.0 / (1.0 + cfg.tau * lam)
        means, variances = linear_endpoint_moments(cfg)
        for i in range(lam.size):
            w = r[i] ** np.arange(m, 0, -1)
            expected = phi[i] ** 2 * toeplitz_bilinear(gamma, w, w)
            assert variances[i] == pytest.approx(expected, rel=self.RTOL,
                                                 abs=0.0)
        np.testing.assert_allclose(means, r**m * xi, rtol=self.RTOL)

    @pytest.mark.parametrize("preset", PRESETS)
    @pytest.mark.parametrize("delta", [0.0, 0.75])
    def test_increment_rms(self, preset, delta):
        cfg, lam, phi, xi, gamma = self.parts(preset)
        m = cfg.m_steps
        lags = [1, 5, 16, m - 1]
        r = 1.0 / (1.0 + cfg.tau * lam)
        expected = []
        for lag in lags:
            total = 0.0
            for i in range(lam.size):
                w_end = r[i] ** np.arange(m, 0, -1)
                w_lag = np.concatenate([r[i] ** np.arange(m - lag, 0, -1),
                                        np.zeros(lag)])
                d = phi[i] * (w_end - w_lag)
                mean_diff = (r[i] ** m - r[i] ** (m - lag)) * xi[i]
                total += lam[i] ** delta * (toeplitz_bilinear(gamma, d, d)
                                            + mean_diff**2)
            expected.append(math.sqrt(total))
        np.testing.assert_allclose(expected_increment_rms(cfg, lags, delta),
                                   expected, rtol=self.RTOL)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_temporal_rms_errors(self, preset):
        cfg, lam, phi, xi, gamma = self.parts(preset)
        m = cfg.m_steps
        ladder = [3, 6, 12, 24]
        r = 1.0 / (1.0 + cfg.tau * lam)
        w_ref = [r[i] ** np.arange(m, 0, -1) for i in range(lam.size)]
        expected = self.coarse_errors(cfg, lam, phi, xi, gamma, ladder,
                                      w_ref, r**m)
        np.testing.assert_allclose(
            expected_rms_errors(cfg, temporal_rungs(cfg, ladder)), expected,
            rtol=self.RTOL)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_mild_rms_errors(self, preset):
        cfg, lam, phi, xi, gamma = self.parts(preset)
        ladder = [3, 6, 12, 24]
        s = np.arange(cfg.m_steps) * cfg.tau
        w_ref = [np.exp(-lam[i] * (cfg.horizon - s))
                 for i in range(lam.size)]
        expected = self.coarse_errors(cfg, lam, phi, xi, gamma, ladder,
                                      w_ref, np.exp(-lam * cfg.horizon))
        np.testing.assert_allclose(expected_mild_rms_errors(cfg, ladder),
                                   expected, rtol=self.RTOL)

    def test_ladder_must_divide(self):
        cfg = self.parts("she-identity")[0]
        with pytest.raises(ValueError):
            expected_rms_errors(cfg, [(cfg.n_modes, 5)])
        for ladder in ([5], [7], [96]):
            with pytest.raises(ValueError):
                expected_mild_rms_errors(cfg, ladder)

    @pytest.mark.parametrize("m_steps", [1, 2, 7])
    def test_short_grids(self, m_steps):
        # one- and two-step grids: the rfft half has no interior bins
        for preset in self.PRESETS:
            cfg, lam, phi, xi, gamma = self.parts(preset, m_steps)
            r = 1.0 / (1.0 + cfg.tau * lam)
            _, variances = linear_endpoint_moments(cfg)
            for i in range(lam.size):
                w = r[i] ** np.arange(m_steps, 0, -1)
                assert variances[i] == pytest.approx(
                    phi[i] ** 2 * toeplitz_bilinear(gamma, w, w),
                    rel=self.RTOL, abs=0.0)


class TestRungOracle:
    """expected_rms_errors at rungs (n, q) that drop modes and aggregate
    steps at once, against the block solver, and its range checks."""

    def test_rejects_out_of_range_rungs(self):
        cfg = linear_config(8, 10, identity_noise(8))
        for rung in ((20, 1), (9, 1), (-1, 1), (0, 1), (2, 3), (2, 0),
                     (2, -2), (2, 20)):
            with pytest.raises(ValueError, match=re.escape(f"rung {rung}")):
                expected_rms_errors(cfg, [(2, 1), rung])

    @pytest.mark.parametrize("preset", ["she-trace", "she-identity"])
    def test_block_solver_within_4_se(self, preset):
        # F = 0: each rung's Monte Carlo rms error, from the study's own
        # map and reducer, against the fine reference lies within 4 SE of
        # the oracle
        cfg = she_problem(preset, n_modes=8, m_steps=64, base_seed=31,
                          with_nonlinearity=False)
        rungs = [(2, 8), (3, 1), (4, 4), (6, 2), (8, 16)]
        errors, = solver.sample_map([cfg], 400, [(cfg.n_modes, 1)] + rungs,
                                    (cfg.m_steps,), experiments._rung_errors)
        for k, oracle in enumerate(expected_rms_errors(cfg, rungs)):
            rms, se = rms_error(errors[:, k])
            assert abs(rms - oracle) < 4 * se, (rungs[k], rms, oracle, se)


def _pre_refactor_form(gamma):
    """The one-FFT Toeplitz form as first written, a BLAS dot over the
    bins."""
    m = gamma.size
    first_row = np.concatenate([gamma, [0.0], gamma[-1:0:-1]])
    weights = np.fft.rfft(first_row).real / (2 * m)
    weights[1:m] *= 2.0

    def form(d):
        spec = np.fft.rfft(d, 2 * m)
        return float(weights @ (spec.real**2 + spec.imag**2))

    return form


class TestOraclesAgainstPreRefactorFormulas:
    """The oracles on solver.linear_weights against the weights each one
    built for itself before (resolvent powers, reference callbacks), at
    the shapes of criterion 8, the desk protocols and the regularity
    suite."""

    RTOL = 1e-14

    @staticmethod
    def parts(cfg):
        n = cfg.n_modes
        gamma = cfg.tau ** (2.0 * cfg.hurst.h) * fbm._fgn_covariance_seq(
            cfg.m_steps - 1, cfg.hurst)
        r = 1.0 / (1.0 + cfg.tau * cfg.operator.eigenvalues[:n])
        return (cfg.operator.eigenvalues[:n], cfg.noise.amplitudes[:n],
                cfg.initial.coeffs[:n], _pre_refactor_form(gamma), r)

    def coarse_errors(self, cfg, rungs, reference):
        """Full-length errors at rungs (n, q): below n the form of the
        reference weights minus the scheme's at step ratio q, from n on
        the reference's own second moment."""
        lam, phi, xi, form, _ = self.parts(cfg)
        err2 = np.zeros(len(rungs))
        for i in range(lam.size):
            w_ref, decay_ref = reference(lam[i])
            for k, (n, q) in enumerate(rungs):
                w, decay = 0.0, 0.0
                if i < n:
                    m = cfg.m_steps // q
                    r_c = 1.0 / (1.0 + (cfg.tau * q) * lam[i])
                    w, decay = np.repeat(r_c ** np.arange(m, 0, -1), q), r_c**m
                err2[k] += (form(phi[i] * (w_ref - w))
                            + ((decay_ref - decay) * xi[i]) ** 2)
        return np.sqrt(err2)

    @staticmethod
    def mild(cfg):
        lags = cfg.horizon - np.arange(cfg.m_steps) * cfg.tau
        return lambda lam: (np.exp(-lam * lags), np.exp(-lam * cfg.horizon))

    @staticmethod
    def scheme(cfg):
        def reference(lam):
            r = 1.0 / (1.0 + cfg.tau * lam)
            return r ** np.arange(cfg.m_steps, 0, -1), r**cfg.m_steps

        return reference

    @pytest.mark.parametrize("preset", ["she-trace", "she-identity"])
    def test_mild_errors_criterion_8(self, preset):
        cfg = she_problem(preset, n_modes=16, m_steps=2**16, base_seed=777,
                          with_nonlinearity=False)
        ladder = [2**8, 2**9, 2**10]
        expected = self.coarse_errors(cfg, temporal_rungs(cfg, ladder),
                                      self.mild(cfg))
        np.testing.assert_allclose(expected_mild_rms_errors(cfg, ladder),
                                   expected, rtol=self.RTOL)

    @pytest.mark.parametrize("preset", ["she-trace", "she-identity"])
    def test_temporal_errors_desk(self, preset):
        cfg = she_problem(preset, n_modes=64, m_steps=2**12, base_seed=0,
                          with_nonlinearity=False)
        rungs = temporal_rungs(cfg, [2**6, 2**7, 2**8, 2**9, 2**10])
        np.testing.assert_allclose(
            expected_rms_errors(cfg, rungs),
            self.coarse_errors(cfg, rungs, self.scheme(cfg)), rtol=self.RTOL)

    @pytest.mark.parametrize("preset", ["she-trace", "she-identity"])
    def test_mixed_rungs_desk(self, preset):
        # rungs that drop modes and aggregate steps at once, against the
        # fine scheme and the mild solution; (64, 1) is exact
        cfg = she_problem(preset, n_modes=64, m_steps=2**12, base_seed=0,
                          with_nonlinearity=False)
        rungs = [(4, 64), (8, 32), (20, 16), (32, 1), (48, 4), (64, 1),
                 (64, 2)]
        for ratio, reference in ((1, self.scheme(cfg)),
                                 (None, self.mild(cfg))):
            np.testing.assert_allclose(
                expected_rms_errors(cfg, rungs, reference_ratio=ratio),
                self.coarse_errors(cfg, rungs, reference), rtol=self.RTOL,
                atol=0.0, err_msg=str(ratio))

    @pytest.mark.parametrize("preset", ["she-trace", "she-identity"])
    def test_spatial_errors_desk(self, preset):
        cfg = she_problem(preset, n_modes=512, m_steps=200, base_seed=0,
                          with_nonlinearity=False)
        ladder = [2, 4, 8, 16, 32]
        lam, phi, xi, form, r = self.parts(cfg)
        m = cfg.m_steps
        second = np.array([
            (r[i] ** m * xi[i]) ** 2
            + phi[i] ** 2 * form(r[i] ** np.arange(m, 0, -1))
            for i in range(lam.size)])
        expected = [math.sqrt(second[n:].sum()) for n in ladder]
        np.testing.assert_allclose(
            expected_rms_errors(cfg, [(n, 1) for n in ladder]), expected,
            rtol=self.RTOL)

    @pytest.mark.parametrize("preset", ["she-trace", "she-identity"])
    def test_increment_rms_regularity_suite(self, preset):
        cfg = she_problem(preset, n_modes=64, m_steps=2**14, base_seed=0,
                          with_nonlinearity=False)
        lags = [8, 16, 32, 64]
        lam, phi, xi, form, r = self.parts(cfg)
        m = cfg.m_steps
        total = np.zeros(len(lags))
        for i in range(lam.size):
            w_end = r[i] ** np.arange(m, 0, -1)
            for k, lag in enumerate(lags):
                w_lag = np.zeros(m)
                w_lag[: m - lag] = r[i] ** np.arange(m - lag, 0, -1)
                mean_diff = (r[i] ** m - r[i] ** (m - lag)) * xi[i]
                total[k] += lam[i] ** 0.5 * (
                    form(phi[i] * (w_end - w_lag)) + mean_diff**2)
        np.testing.assert_allclose(expected_increment_rms(cfg, lags, 0.5),
                                   np.sqrt(total), rtol=self.RTOL)


class TestTruncatedForms:
    """The oracles evaluate each form on the tail of its weight
    difference that solver.linear_support keeps; with the support forced
    to M they evaluate the full-length forms. The two agree at the shapes
    of criterion 8, the desk temporal protocol and the resolved temporal
    protocol, both presets."""

    RTOL = 1e-14
    PRESETS = ("she-trace", "she-identity")

    @staticmethod
    def both(oracle, monkeypatch):
        # the cached unit forms are those of the support in force when
        # they were built, so each side starts from an empty cache
        fbm.clear_caches()
        truncated = oracle()
        with monkeypatch.context() as patch:
            patch.setattr(verify, "linear_support",
                          lambda lam, tau, m_steps, ratio=None: m_steps)
            fbm.clear_caches()
            full = oracle()
        fbm.clear_caches()
        return truncated, full

    @pytest.mark.parametrize("preset", PRESETS)
    def test_mild_errors_criterion_8(self, preset, monkeypatch):
        cfg = she_problem(preset, n_modes=16, m_steps=2**16, base_seed=777,
                          with_nonlinearity=False)
        got, full = self.both(
            lambda: expected_mild_rms_errors(cfg, [256, 512, 1024]),
            monkeypatch)
        np.testing.assert_allclose(got, full, rtol=self.RTOL, atol=0.0)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_desk_temporal(self, preset, monkeypatch):
        cfg = she_problem(preset, n_modes=64, m_steps=2**12, base_seed=0,
                          with_nonlinearity=False)
        for oracle in (
                lambda: expected_rms_errors(cfg, temporal_rungs(
                    cfg, [2**6, 2**7, 2**8, 2**9, 2**10])),
                lambda: expected_rms_errors(
                    cfg, [(4, 64), (16, 8), (40, 1), (64, 2)]),
                lambda: expected_mild_rms_errors(cfg, [2**6, 2**10]),
                lambda: expected_increment_rms(cfg, [1, 8, 64, 4095], 0.5),
                lambda: np.concatenate(linear_endpoint_moments(cfg))):
            got, full = self.both(oracle, monkeypatch)
            np.testing.assert_allclose(got, full, rtol=self.RTOL, atol=0.0)

    @pytest.mark.parametrize("preset", PRESETS)
    def test_resolved_temporal(self, preset, monkeypatch):
        cfg = she_problem(preset, n_modes=64, m_steps=2**16, base_seed=0,
                          with_nonlinearity=False)
        got, full = self.both(
            lambda: expected_rms_errors(cfg, temporal_rungs(
                cfg, [2**6, 2**7, 2**8, 2**9, 2**10])),
            monkeypatch)
        np.testing.assert_allclose(got, full, rtol=self.RTOL, atol=0.0)

    def test_forms_are_per_grid_and_per_size(self, monkeypatch):
        # criterion 8's shape: one set of circulant weights per
        # power-of-two size and M, each built once for the grid (the only
        # rfft with no padding length); the next call reads the cached
        # unit forms and runs no rfft
        cfg = she_problem("she-trace", n_modes=16, m_steps=2**16,
                          base_seed=777, with_nonlinearity=False)
        calls = []
        rfft = np.fft.rfft

        def counting_rfft(a, *args, **kwargs):
            calls.append((a.size, bool(args or kwargs)))
            return rfft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        fbm.clear_caches()
        expected_mild_rms_errors(cfg, [256, 512, 1024])
        built = [size // 2 for size, padded in calls if not padded]
        assert len(built) == len(set(built)) <= 17
        assert all(size & (size - 1) == 0 for size in built)
        assert sum(size + 1 for size in built) < 2 * (2**16 + 1)
        calls.clear()
        expected_mild_rms_errors(cfg, [256, 512, 1024])
        assert calls == []


class TestOracleWork:
    """Each oracle call builds one form per mode and column of the unit
    forms it reads, and reads only the columns its rungs use."""

    @staticmethod
    def work(oracle, monkeypatch):
        """(columns of each _unit_forms call, forms evaluated) of a call
        of ``oracle`` on an empty cache."""
        columns, evaluated = [], []
        unit_forms, grid_form = verify._unit_forms, verify._grid_form

        def recording_unit_forms(*args):
            columns.append(args[5])
            return unit_forms(*args)

        def counting_grid_form(*args):
            form = grid_form(*args)

            def counted(d):
                evaluated.append(d.size)
                return form(d)

            return counted

        monkeypatch.setattr(verify, "_unit_forms", recording_unit_forms)
        monkeypatch.setattr(verify, "_grid_form", counting_grid_form)
        fbm.clear_caches()
        oracle()
        fbm.clear_caches()
        return columns, len(evaluated)

    @pytest.mark.parametrize("preset", ("she-trace", "she-identity"))
    def test_protocol_shapes(self, preset, monkeypatch):
        c8 = she_problem(preset, n_modes=16, m_steps=2**16, base_seed=777,
                         with_nonlinearity=False)
        columns, forms = self.work(
            lambda: expected_mild_rms_errors(c8, [256, 512, 1024]),
            monkeypatch)
        assert columns == [((256, 0), (128, 0), (64, 0))]
        assert forms == 16 * 3
        for axis, want in (("temporal", ((64, 0), (32, 0), (16, 0),
                                         (8, 0), (4, 0))),
                           ("spatial", (None,))):
            study = experiments.protocol_study(axis, "desk", preset, 0)
            p = study.problem
            linear = she_problem(preset, n_modes=p.n_modes,
                                 m_steps=p.m_steps, base_seed=0,
                                 with_nonlinearity=False)
            columns, forms = self.work(
                lambda: expected_rms_errors(linear, study.rungs),
                monkeypatch)
            assert columns == [want], axis
            assert forms == p.n_modes * len(want), axis


class TestSharedUnitForms:
    """The oracles assemble each preset's value from unit-amplitude forms
    cached per grid (verify._unit_forms)."""

    @staticmethod
    def problem(preset="she-trace", **overrides):
        shape = dict(n_modes=16, m_steps=2**12, base_seed=777,
                     with_nonlinearity=False)
        return she_problem(preset, **{**shape, **overrides})

    def test_second_preset_runs_no_fft(self, monkeypatch):
        fbm.clear_caches()
        first = self.problem("she-trace", m_steps=2**16)
        expected_mild_rms_errors(first, [256, 512, 1024])
        calls = []
        rfft = np.fft.rfft

        def counting_rfft(*args, **kwargs):
            calls.append(args[0].size)
            return rfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", counting_rfft)
        second = self.problem("she-identity", m_steps=2**16)
        expected_mild_rms_errors(second, [256, 512, 1024])
        assert calls == []

    def test_cached_oracles_match_uncached(self, monkeypatch):
        # a run of oracles that differ from the first in one value the
        # forms depend on each (preset, reference, ladder, H, tau, M,
        # eigenvalues, lags), evaluated through the cache and without it
        base = self.problem()
        calls = [
            lambda: expected_mild_rms_errors(base, [256, 512, 1024]),
            lambda: expected_mild_rms_errors(
                self.problem("she-identity"), [256, 512, 1024]),
            lambda: expected_rms_errors(
                base, temporal_rungs(base, [256, 512, 1024])),
            lambda: expected_rms_errors(base, [(4, 16), (16, 1), (8, 1)]),
            lambda: expected_mild_rms_errors(base, [256, 1024]),
            lambda: expected_mild_rms_errors(
                self.problem(hurst=0.6), [256, 512, 1024]),
            lambda: expected_mild_rms_errors(
                self.problem(horizon=2.0), [256, 512, 1024]),
            lambda: expected_mild_rms_errors(
                self.problem(m_steps=2**13), [256, 512, 1024]),
            lambda: expected_mild_rms_errors(
                dataclasses.replace(base, operator=dataclasses.replace(
                    base.operator,
                    eigenvalues=2.0 * base.operator.eigenvalues)),
                [256, 512, 1024]),
            lambda: expected_increment_rms(base, [8, 16, 32], 0.5),
            lambda: expected_increment_rms(base, [8, 16, 64], 0.5),
            lambda: np.concatenate(linear_endpoint_moments(base)),
            lambda: expected_sobolev_rms(self.problem("she-identity"), 0.5),
        ]
        fbm.clear_caches()
        cached = [call() for call in calls]
        with monkeypatch.context() as patch:
            patch.setattr(verify, "_unit_forms",
                          verify._unit_forms.__wrapped__)
            uncached = [call() for call in calls]
        for k, (got, expected) in enumerate(zip(cached, uncached)):
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0,
                                       err_msg=str(k))

    def test_unit_forms_are_read_only(self):
        fbm.clear_caches()
        cfg = self.problem()
        expected_rms_errors(cfg, [(16, 16), (8, 8)], reference_ratio=None)
        # the rungs (16, 16) and (8, 8) read their ratio columns, and the
        # second the reference's own column above mode 8; every column
        # covers every mode
        forms, decays = verify._unit_forms(
            cfg.operator.eigenvalues[:16].tobytes(), cfg.tau, cfg.m_steps,
            cfg.hurst, None, ((16, 0), (8, 0), None))
        assert verify._unit_forms.cache_info().hits == 1
        for array in (forms, decays):
            assert array.shape == (16, 3)
            assert not array.flags.writeable
            assert np.isfinite(array).all()


# Prints the mild reference of both presets and four exact oracles: three
# at criterion 8's shape, where the largest forms sum 2^16 + 1 bins (the
# second preset's from the unit forms the first one cached), and mixed
# rungs (n, q) on the desk temporal grid, whose forms have several sizes
# and which read the reference's own column above n.
THREADS_SCRIPT = """
from fracspde import experiments, fbm, rng, solver, verify

for preset in ("she-identity", "she-trace"):
    p = experiments.she_problem(preset, n_modes=16, m_steps=2**16,
                                base_seed=777, with_nonlinearity=False)
    fine = fbm.generate_cylindrical_fbm(
        16, p.grid(), p.hurst, rng.derive_seed(777, rng.SAMPLE_STREAM, 0))
    print(repr(solver.linear_mild_reference(p, fine).coeffs.tolist()))
    print(repr(verify.expected_mild_rms_errors(p, [256, 512, 1024]).tolist()))
print(repr(verify.expected_increment_rms(p, [8, 16, 32], 0.0).tolist()))
desk = experiments.she_problem("she-trace", n_modes=64, m_steps=2**12,
                               base_seed=0, with_nonlinearity=False)
print(repr(verify.expected_rms_errors(
    desk, [(8, 64), (16, 32), (32, 16), (40, 1), (64, 4)]).tolist()))
"""


def test_oracles_independent_of_blas_threads():
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [str(src)] + [p for p in [os.environ.get("PYTHONPATH")]
                                     if p]))
        proc = subprocess.run([sys.executable, "-c", THREADS_SCRIPT],
                              env=env, capture_output=True, text=True,
                              timeout=300, check=True)
        outputs.append(proc.stdout)
    assert outputs[0].count("\n") == 6
    assert outputs[0] == outputs[1]


class TestTimeRegularity:
    def test_synthetic_exponent_recovery(self):
        lags = np.array([0.01, 0.02, 0.04, 0.08])
        rms = 3.2 * lags**0.61
        assert fit_slope(lags, rms)[0] == pytest.approx(0.61, abs=1e-12)

    def test_deterministic_problem_reports_decay_lags(self):
        cfg = linear_config(4, 64, zero_noise(4))
        report, = estimate_time_regularity([cfg], delta=0.0,
                                           lag_steps=(8, 16, 32), samples=2)
        oracle = expected_increment_rms(cfg, [8, 16, 32], 0.0)
        np.testing.assert_allclose(report.rms_differences, oracle,
                                   rtol=1e-10)

    def test_theoretical_exponent_formula(self):
        cfg = linear_config(4, 64, trace_class_noise(4))
        report, = estimate_time_regularity([cfg], delta=0.5,
                                           lag_steps=(4, 8, 16), samples=2)
        assert report.theoretical_exponent == pytest.approx(
            (2 * 0.75 + 1.0 - 1.0 - 0.5) / 2, rel=1e-15
        )

    def test_matches_exact_oracle_statistically(self):
        cfg = linear_config(8, 128, trace_class_noise(8), seed=55)
        lags = (8, 16, 32)
        report, = estimate_time_regularity([cfg], delta=0.0, lag_steps=lags,
                                           samples=400)
        oracle = expected_increment_rms(cfg, list(lags), 0.0)
        np.testing.assert_allclose(report.rms_differences, oracle, rtol=0.15)

    def test_needs_three_lags(self):
        cfg = linear_config(4, 64, trace_class_noise(4))
        with pytest.raises(ValueError):
            estimate_time_regularity([cfg], delta=0.0, lag_steps=(8, 16),
                                     samples=2)

    def test_needs_three_distinct_lags(self, monkeypatch):
        cfg = linear_config(4, 64, trace_class_noise(4))
        draws = []
        monkeypatch.setattr(solver, "increment_rows",
                            lambda *a: draws.append(a))
        with pytest.raises(ValueError, match="3 distinct lags"):
            estimate_time_regularity([cfg], delta=0.0, lag_steps=(8, 8, 8),
                                     samples=2)
        assert draws == []

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_non_finite_delta_rejected_before_any_draw(self, delta,
                                                       monkeypatch):
        cfg = linear_config(4, 64, trace_class_noise(4))
        draws = []
        draw = solver.increment_rows
        monkeypatch.setattr(solver, "increment_rows",
                            lambda *a, **k: draws.append(1) or draw(*a, **k))
        with pytest.raises(ValueError, match="each finite"):
            estimate_time_regularity([cfg], delta=delta, lag_steps=(8, 16, 32),
                                     samples=2)
        assert draws == []


class TestSpaceRegularity:
    def test_zero_noise_is_deterministic(self):
        cfg = linear_config(8, 32, zero_noise(8))
        reports, = estimate_space_regularity([cfg], n_ladder=(2, 4, 8),
                                             deltas=(0.0,), samples=3)
        r = 1.0 / (1.0 + cfg.tau * cfg.operator.eigenvalues)
        expected = abs(r[0] ** 32 * cfg.initial.coeffs[0])
        np.testing.assert_allclose(reports[0].rms_norms,
                                   np.full(3, expected), rtol=1e-12)

    def test_nested_ladders_monotone(self):
        cfg = linear_config(16, 32, identity_noise(16), seed=19)
        reports, = estimate_space_regularity([cfg], n_ladder=(2, 4, 8, 16),
                                             deltas=(0.0, 0.9), samples=12)
        for report in reports:
            assert np.all(np.diff(report.rms_norms) > 0)

    @pytest.mark.parametrize("ladder,deltas,match", [
        ((0, 2, 4), (0.0,), re.escape("rung (0, 1)")),
        ((), (0.0,), "need at least one rung"),
        ((2, 9), (0.0,), re.escape("rung (9, 1)")),
        ((4, 2, 4), (0.0,), "repeats a mode count"),
        ((2, 4), (), "need at least one delta"),
        ((2, 4), (math.nan,), re.escape("each finite; got [nan]")),
        ((2, 4), (0.0, math.inf), re.escape("each finite; got [0.0, inf]")),
    ], ids=["zero", "empty", "above-N", "repeated", "no-delta", "nan-delta",
            "inf-delta"])
    def test_bad_ladder_rejected_before_any_draw(self, ladder, deltas, match,
                                                 monkeypatch):
        cfg = linear_config(8, 32, identity_noise(8))
        draws = []
        draw = solver.increment_rows
        monkeypatch.setattr(solver, "increment_rows",
                            lambda *a, **k: draws.append(1) or draw(*a, **k))
        with pytest.raises(ValueError, match=match):
            estimate_space_regularity([cfg], n_ladder=ladder, deltas=deltas,
                                      samples=3)
        assert draws == []
        estimate_space_regularity([cfg], n_ladder=(2, 8), deltas=(0.0,),
                                  samples=3)
        assert draws == [1]

    def test_matches_exact_oracle_statistically(self):
        cfg = linear_config(16, 32, identity_noise(16), seed=29)
        reports, = estimate_space_regularity([cfg], n_ladder=(4, 16),
                                             deltas=(0.9,), samples=600)
        for n, value in zip((4, 16), reports[0].rms_norms):
            oracle = expected_sobolev_rms(restrict_config(cfg, n_modes=n),
                                          0.9)
            assert value == pytest.approx(oracle, rel=0.1)


class TestRegularityBlocks:
    """Fixed sample blocks: results follow the sample index, not the
    worker count, and block size moves only the last bits."""

    LAGS = (8, 16, 32)
    LADDER = (2, 4, 8)
    DELTAS = (0.0, 0.9)
    BOTH = ("she-trace", "she-identity")

    @staticmethod
    def set_block(monkeypatch, config, size):
        monkeypatch.setattr(solver, "_BLOCK_BYTES",
                            size * 8 * config.m_steps * config.n_modes)

    def time_config(self, preset="she-trace"):
        return she_problem(preset, n_modes=8, m_steps=64, base_seed=5)

    def space_config(self, preset="she-identity"):
        return she_problem(preset, n_modes=8, m_steps=64, base_seed=6)

    def run_time(self, workers=1, presets=("she-trace",), samples=8):
        """(presets, lags) RMS lag differences of one stacked call."""
        reports = estimate_time_regularity(
            [self.time_config(p) for p in presets], delta=0.0,
            lag_steps=self.LAGS, samples=samples, workers=workers)
        return np.array([r.rms_differences for r in reports])

    def run_space(self, workers=1, presets=("she-identity",)):
        """(presets, deltas, rungs) RMS norms of one stacked call."""
        reports = estimate_space_regularity(
            [self.space_config(p) for p in presets], n_ladder=self.LADDER,
            deltas=self.DELTAS, samples=8, workers=workers)
        return np.array([[r.rms_norms for r in per_delta]
                         for per_delta in reports])

    def test_blocks_of_three(self, monkeypatch):
        cfg = self.time_config()
        self.set_block(monkeypatch, cfg, 3)
        blocks = solver._sample_blocks(cfg, 8)
        assert [(first, len(seeds)) for first, seeds in blocks] == [
            (0, 3), (3, 3), (6, 2)]
        assert [seed for _, seeds in blocks for seed in seeds] == [
            derive_seed(cfg.base_seed, SAMPLE_STREAM, s) for s in range(8)]

    def test_default_block_sizes(self):
        # 64 samples, a multiple of every cap, split into full blocks
        for n_modes, size in ((64, 4), (32, 8)):
            cfg = she_problem("she-trace", n_modes=n_modes, m_steps=2**14,
                              base_seed=0)
            assert len(solver._sample_blocks(cfg, 64)[0][1]) == size

    @pytest.mark.parametrize("run", ["run_time", "run_space"])
    def test_worker_count_invariant(self, run, monkeypatch):
        self.set_block(monkeypatch, self.time_config(), 3)
        for presets in (self.BOTH[:1], self.BOTH):
            one, two = (getattr(self, run)(workers=w, presets=presets)
                        for w in (1, 2))
            assert np.array_equal(one, two)

    def test_worker_count_invariant_where_the_split_moved(self,
                                                          monkeypatch):
        # 6 samples under a budget of 4 run as blocks of 3 and 3, not
        # 4 and 2
        cfg = self.time_config()
        self.set_block(monkeypatch, cfg, 4)
        assert [len(seeds) for _, seeds in
                solver._sample_blocks(cfg, 6)] == [3, 3]
        one, two = (self.run_time(workers=w, presets=self.BOTH, samples=6)
                    for w in (1, 2))
        assert np.array_equal(one, two)

    @pytest.mark.parametrize("run", ["run_time", "run_space"])
    def test_block_size_invariant(self, run, monkeypatch):
        # the last size is the default one at the 8 samples the runs draw
        assert len(solver._sample_blocks(self.time_config(), 8)[0][1]) == 8
        for presets in (self.BOTH[:1], self.BOTH):
            results = []
            for size in (1, 3, 8):
                self.set_block(monkeypatch, self.time_config(), size)
                results.append(getattr(self, run)(presets=presets))
            for other in results[1:]:
                np.testing.assert_allclose(other, results[0], rtol=1e-13,
                                           atol=0.0)

    @pytest.mark.parametrize("block", [1, 3, 8])
    @pytest.mark.parametrize("run", ["run_time", "run_space"])
    def test_stacked_equals_single_calls(self, run, block, monkeypatch):
        self.set_block(monkeypatch, self.time_config(), block)
        stacked = getattr(self, run)(presets=self.BOTH)
        for p, preset in enumerate(self.BOTH):
            assert np.array_equal(stacked[p],
                                  getattr(self, run)(presets=(preset,))[0])

    @pytest.mark.parametrize("n_modes", [8, 512])
    @pytest.mark.parametrize("chunk_steps", [1, 5, 64])
    def test_preset_sweep_matches_scaled_block(self, n_modes, chunk_steps,
                                               monkeypatch):
        # every rung (n, q) of the chunked (n, P*B) sweep equals the sweep
        # of the presets' scaled blocks, stacked and whole, restricted to
        # n modes and summed q at a time over all M steps; N = 512 runs
        # F = sin through DST-I, its rungs below 512 the dense matrix.
        # Each preset's columns also equal its one-preset sweep, except on
        # the dense path from 16 modes on: there OpenBLAS may give a
        # (n, P*B) product other bits than a (n, B) one (measured for the
        # folded step at B = 2 to 4 and P = 2, up to 1.6e-16 of the
        # largest state; at B = 1 and 8, at no n up to 511). One-preset
        # blocks run too: their staging panel holds half the budget, so
        # 5-step chunks stage panels of 2, 2 and 1 steps
        configs = [she_problem(p, n_modes=n_modes, m_steps=64, base_seed=7)
                   for p in self.BOTH]
        seeds = (11, 12, 13)
        rows = increment_rows(configs[0].grid(), configs[0].hurst,
                              mode_keys(seeds, n_modes),
                              configs[0].fbm_method)
        blocks = [_block_increments(c, seeds) for c in configs]

        def whole_sweep(block, n, q, stops):
            rung = restrict_config(configs[0], n_modes=n, m_steps=64 // q)
            x0, step_factor, *sweep = solver._sweep_setup(rung)
            return kernels.euler_sweep(
                np.repeat(x0[:, None], block.shape[2], axis=1), step_factor,
                fbm._aggregate_values(block[:, :n], q, axis=0), *sweep,
                [k // q for k in stops])

        cases = [
            ([(n_modes, 1), (n_modes // 2, 1)], (0, 3, 5, 5, 40, 64)),
            ([(n_modes, 4), (n_modes // 2, 16), (n_modes // 4, 1),
              (n_modes // 4, 4)], (0, 16, 16, 48, 64)),
        ]
        for presets in (2, 1):
            monkeypatch.setattr(solver, "_SWEEP_CHUNK_BYTES",
                                chunk_steps * 8 * n_modes * presets
                                * len(seeds))
            stacked_block = np.concatenate(blocks[:presets], axis=2)  # p*B + s
            for rungs, stops in cases:
                stacked = solver._solve_block(configs[:presets], rows, rungs,
                                              stops)
                for (n, q), states in zip(rungs, stacked):
                    assert states.shape == (len(stops), n, presets,
                                            len(seeds))
                    whole = whole_sweep(stacked_block, n, q, stops)
                    assert np.array_equal(states.reshape(whole.shape),
                                          whole), (presets, n, q)
                    if presets == 1 or 16 <= n < solver._FAST_SINE_MIN_MODES:
                        continue
                    for p, block in enumerate(blocks):
                        assert np.array_equal(
                            states[:, :, p, :],
                            whole_sweep(block, n, q, stops)), (n, q, p)

    def test_weighted_sums_match_loop(self):
        states = np.random.default_rng(0).normal(size=(3, 37, 2, 5))
        weights = np.arange(1.0, 38.0) ** 0.9
        sums = verify._weighted_sums(weights, states)
        loop = [[[float(np.sum(weights * states[k, :, p, s] ** 2))
                  for k in range(3)] for s in range(5)] for p in range(2)]
        assert np.array_equal(sums, np.array(loop))

    @pytest.mark.parametrize("field", [
        f.name for f in dataclasses.fields(SolverConfig) if f.name != "noise"])
    def test_configs_must_agree_but_in_noise(self, field):
        cfg = self.time_config()
        other = {
            "n_modes": restrict_config(cfg, n_modes=4),
            "m_steps": restrict_config(cfg, m_steps=32),
            "horizon": dataclasses.replace(cfg, horizon=2.0),
            "hurst": dataclasses.replace(cfg, hurst=HurstParameter(0.8)),
            "operator": dataclasses.replace(cfg, operator=dataclasses.replace(
                cfg.operator, eigenvalues=2.0 * cfg.operator.eigenvalues)),
            "nonlinearity": dataclasses.replace(cfg, nonlinearity=zero_map()),
            "initial": dataclasses.replace(cfg, initial=SpectralState(
                coeffs=2.0 * cfg.initial.coeffs)),
            "base_seed": dataclasses.replace(cfg, base_seed=6),
            "fbm_method": dataclasses.replace(cfg, fbm_method="cholesky"),
        }[field]
        noisier = dataclasses.replace(other, noise=identity_noise(8))
        with pytest.raises(ValueError, match=f"differ in {field};"):
            estimate_time_regularity([cfg, noisier], delta=0.0,
                                     lag_steps=self.LAGS, samples=2)
        with pytest.raises(ValueError, match=f"differ in {field};"):
            estimate_space_regularity([cfg, noisier], n_ladder=(2, 4),
                                      deltas=(0.0,), samples=2)

    def test_configs_must_agree_in_a_subclass_field(self):
        @dataclasses.dataclass(frozen=True, eq=False)
        class LabelledConfig(SolverConfig):
            label: str = ""

        cfg = LabelledConfig(**{
            f.name: getattr(self.time_config(), f.name)
            for f in dataclasses.fields(SolverConfig)}, label="a")
        other = dataclasses.replace(cfg, noise=identity_noise(8), label="b")
        with pytest.raises(ValueError, match="differ in label;"):
            estimate_time_regularity([cfg, other], delta=0.0,
                                     lag_steps=self.LAGS, samples=2)

    @pytest.mark.parametrize("presets", [1, 2, 3])
    def test_one_draw_per_block_for_any_preset_count(self, presets,
                                                     monkeypatch):
        self.set_block(monkeypatch, self.time_config(), 3)
        hashes = []
        seed_words = fbm.seed_words
        monkeypatch.setattr(fbm, "seed_words",
                            lambda seeds: hashes.append(1) or seed_words(seeds))
        configs = [self.time_config(p) for p in self.BOTH] + [
            she_problem("she-trace", n_modes=8, m_steps=64, base_seed=5,
                        with_noise=False)]
        estimate_time_regularity(configs[:presets], delta=0.0,
                                 lag_steps=self.LAGS, samples=8)
        assert len(hashes) == 3  # blocks of 3, 3 and 2 samples
        estimate_space_regularity(configs[:presets], n_ladder=self.LADDER,
                                  deltas=self.DELTAS, samples=8)
        assert len(hashes) == 6

    def test_time_matches_per_sample_paths(self):
        cfg = self.time_config()
        m = cfg.m_steps
        sq = []
        for s in range(8):
            noise = generate_cylindrical_fbm(
                cfg.n_modes, cfg.grid(), cfg.hurst,
                derive_seed(cfg.base_seed, SAMPLE_STREAM, s))
            states = solver._solve_block(
                [cfg], noise.values[:, None, :], [(cfg.n_modes, 1)],
                range(m + 1))[0][:, :, 0, 0]
            sq.append([np.sum((states[m] - states[m - lag]) ** 2)
                       for lag in self.LAGS])
        np.testing.assert_allclose(self.run_time()[0],
                                   np.sqrt(np.mean(sq, axis=0)), rtol=1e-13)

    def test_space_matches_per_sample_endpoints(self):
        cfg = self.space_config()
        lam = cfg.operator.eigenvalues
        sq = []
        for s in range(8):
            noise = generate_cylindrical_fbm(
                cfg.n_modes, cfg.grid(), cfg.hurst,
                derive_seed(cfg.base_seed, SAMPLE_STREAM, s))
            ends = [solve_endpoint(restrict_config(cfg, n_modes=n),
                                   noise).coeffs for n in self.LADDER]
            sq.append([[np.sum(lam[:n] ** d * end**2)
                        for n, end in zip(self.LADDER, ends)]
                       for d in self.DELTAS])
        np.testing.assert_allclose(self.run_space()[0],
                                   np.sqrt(np.mean(sq, axis=0)), rtol=1e-13)

    def test_non_finite_states_raise(self, monkeypatch):
        # a NaN in the draw of sample 1 of the block 0..2: the error names
        # that sample alone, for one preset and for two stacked
        cfg = self.time_config()
        nan_draws(monkeypatch, solver,
                  [derive_seed(cfg.base_seed, SAMPLE_STREAM, 1)], 40)
        self.set_block(monkeypatch, cfg, 3)
        for configs in ([cfg], [cfg, self.time_config("she-identity")]):
            with pytest.raises(FloatingPointError,
                               match=r"^non-finite state in samples \[1\]$"):
                estimate_time_regularity(configs, delta=0.0,
                                         lag_steps=self.LAGS, samples=8)
            with pytest.raises(FloatingPointError,
                               match=r"^non-finite state in samples \[1\]$"):
                estimate_space_regularity(configs, n_ladder=self.LADDER,
                                          deltas=(0.0,), samples=8)
