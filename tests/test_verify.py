"""Analytic-identity checks and the exact linear-scheme oracle."""

import dataclasses
import math

import numpy as np
import pytest

from fracspde import fbm, solver, verify
from fracspde.experiments import fit_slope, she_problem
from fracspde.fbm import (
    CylindricalFbmSample,
    HurstParameter,
    IncrementGrid,
    generate_cylindrical_fbm,
    increment_covariance,
    increment_covariance_matrix,
    increment_rows,
    mode_keys,
)
from fracspde.rng import SAMPLE_STREAM, derive_seed
from fracspde.solver import (
    SolverConfig,
    restrict_config,
    solve_endpoint,
    solve_path,
)
from fracspde.spectral import (
    SpectralState,
    dirichlet_laplacian,
    identity_noise,
    scaled_identity_map,
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
    expected_sobolev_rms,
    expected_spatial_rms_errors,
    expected_temporal_rms_errors,
    isometry_analytic_rhs,
    linear_endpoint_moments,
    toeplitz_bilinear,
)

H_VALUES = [0.55, 0.75, 0.95]
H = HurstParameter(0.75)


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


class TestPowerLawFit:
    def test_exact_power_law(self):
        lags = np.array([1.0, 2.0, 4.0, 8.0])
        assert fit_slope(lags, lags**0.73)[0] == pytest.approx(
            0.73, abs=1e-12
        )

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_slope(np.array([1.0, 2.0, 4.0]), np.array([1.0, 0.0, 1.0]))


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
                grid=cfg.grid(), values=rows[s], hurst=H,
                base_seed=int(seeds[s]), method="circulant")).coeffs
            for s in range(n_samples)
        ])
        emp = ends.var(axis=0)
        se = variances * math.sqrt(2.0 / n_samples)
        assert np.all(np.abs(emp[1:] - variances[1:]) < 4 * se[1:])

    def test_spatial_errors_nested_tail(self):
        cfg = linear_config(8, 10, identity_noise(8))
        errs = expected_spatial_rms_errors(cfg, [2, 4])
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
        oracle = expected_temporal_rms_errors(cfg, ladder)
        n_samples = 4000
        seeds = derive_seed(97, SAMPLE_STREAM, np.arange(n_samples))
        # rows[s] is generate_cylindrical_fbm(6, cfg.grid(), H,
        # seeds[s]).values
        rows = increment_rows(cfg.grid(), H, mode_keys(seeds, 6).T.ravel()
                              ).reshape(n_samples, 6, 64)
        sq = np.zeros((n_samples, len(ladder)))
        for s in range(n_samples):
            fine = CylindricalFbmSample(grid=cfg.grid(), values=rows[s],
                                        hurst=H, base_seed=int(seeds[s]),
                                        method="circulant")
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
        np.testing.assert_allclose(expected_temporal_rms_errors(cfg, ladder),
                                   expected, rtol=self.RTOL)

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
        for oracle in (expected_temporal_rms_errors,
                       expected_mild_rms_errors):
            with pytest.raises(ValueError):
                oracle(cfg, [5])

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

    def run_time(self, workers=1, presets=("she-trace",)):
        """(presets, lags) RMS lag differences of one stacked call."""
        reports = estimate_time_regularity(
            [self.time_config(p) for p in presets], delta=0.0,
            lag_steps=self.LAGS, samples=8, workers=workers)
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
        blocks = solver._sample_blocks(cfg, 8, cfg.base_seed)
        assert [(first, len(seeds)) for first, seeds in blocks] == [
            (0, 3), (3, 3), (6, 2)]
        assert [seed for _, seeds in blocks for seed in seeds] == [
            derive_seed(cfg.base_seed, SAMPLE_STREAM, s) for s in range(8)]

    def test_default_block_sizes(self):
        for n_modes, size in ((64, 4), (32, 8)):
            cfg = she_problem("she-trace", n_modes=n_modes, m_steps=2**14,
                              base_seed=0)
            assert len(solver._sample_blocks(cfg, 9, 0)[0][1]) == size

    @pytest.mark.parametrize("run", ["run_time", "run_space"])
    def test_worker_count_invariant(self, run, monkeypatch):
        self.set_block(monkeypatch, self.time_config(), 3)
        for presets in (self.BOTH[:1], self.BOTH):
            one, two = (getattr(self, run)(workers=w, presets=presets)
                        for w in (1, 2))
            assert np.array_equal(one, two)

    @pytest.mark.parametrize("run", ["run_time", "run_space"])
    def test_block_size_invariant(self, run, monkeypatch):
        # the last size is the default one
        assert len(solver._sample_blocks(self.time_config(), 9, 0)[0][1]) \
            == 8
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
        # each column of the chunked (N, P*B) sweep equals the one-preset
        # sweep of its scaled block; N = 512 runs F = sin through DST-I
        configs = [she_problem(p, n_modes=n_modes, m_steps=64, base_seed=7)
                   for p in self.BOTH]
        seeds = (11, 12, 13)
        width = len(configs) * len(seeds)
        monkeypatch.setattr(solver, "_SWEEP_CHUNK_BYTES",
                            chunk_steps * 8 * n_modes * width)
        stops = (0, 3, 5, 5, 40, 64)
        stacked = solver._solve_presets(
            configs, solver._unit_increments(configs[0], seeds), stops)
        for p, cfg in enumerate(configs):
            alone = solver.solve_stops(
                cfg, solver._block_increments(cfg, seeds), stops)
            assert np.array_equal(stacked[:, :, p, :], alone)

    def test_weighted_sums_match_loop(self):
        states = np.random.default_rng(0).normal(size=(3, 37, 2, 5))
        weights = np.arange(1.0, 38.0) ** 0.9
        sums = verify._weighted_sums(weights, states)
        loop = [[[float(np.sum(weights * states[k, :, p, s] ** 2))
                  for k in range(3)] for s in range(5)] for p in range(2)]
        assert np.array_equal(sums, np.array(loop))

    @pytest.mark.parametrize("field", solver._SHARED_FIELDS)
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
            states = solve_path(cfg, noise).states
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
        # F(u) = 1e12 u far above lambda_N: every sample overflows
        cfg = dataclasses.replace(self.time_config(),
                                  nonlinearity=scaled_identity_map(1e12))
        self.set_block(monkeypatch, cfg, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError,
                               match=r"samples \[0, 1, 2\]"):
                estimate_time_regularity([cfg], delta=0.0,
                                         lag_steps=self.LAGS, samples=8)
            with pytest.raises(FloatingPointError,
                               match=r"samples \[0, 1, 2\]"):
                estimate_space_regularity([cfg], n_ladder=self.LADDER,
                                          deltas=(0.0,), samples=8)
