"""Scheme mechanics: single steps, full sweeps, linear oracles."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from fracspde import fbm, kernels, solver, spectral, verify
from fracspde.fbm import (
    CylindricalFbmSample,
    HurstParameter,
    IncrementGrid,
    aggregate_cylindrical,
    generate_cylindrical_fbm,
    increment_rows,
    mode_keys,
)
from fracspde.rng import SAMPLE_STREAM, derive_seed
from fracspde.solver import (
    SolverConfig,
    linear_mild_reference,
    linear_support,
    linear_weights,
    restrict_config,
    solve_endpoint,
)
from fracspde.spectral import (
    SpectralOperator,
    SpectralState,
    dirichlet_laplacian,
    identity_noise,
    sine_map,
    trace_class_noise,
    zero_map,
    zero_noise,
)
from fracspde.experiments import protocol_study, run_study, she_problem
from fracspde.verify import check_lambda_phi_bound
from oracles import (
    _block_increments,
    galerkin_sin_endpoint,
    implicit_euler_step,
    sine_factors,
    unfolded_sin_sweep,
)

H = HurstParameter(0.75)
RNG = np.random.default_rng(77)


def make_config(n=4, m=8, horizon=1.0, noise=None, f=None, seed=3,
                initial=None, method="circulant"):
    noise = noise if noise is not None else trace_class_noise(n)
    coeffs = initial if initial is not None else np.concatenate(
        [[2**-0.5], np.zeros(n - 1)]
    )
    return SolverConfig(
        n_modes=n, m_steps=m, horizon=horizon, hurst=H,
        operator=dirichlet_laplacian(n), noise=noise,
        nonlinearity=f if f is not None else zero_map(),
        initial=SpectralState(coeffs=coeffs), base_seed=seed,
        fbm_method=method,
    )


def noise_for(config, seed=None):
    return generate_cylindrical_fbm(
        config.n_modes, config.grid(), config.hurst,
        config.base_seed if seed is None else seed, config.fbm_method,
    )


def path_of(config, sample):
    """All M + 1 states of one sample as an (M + 1, N) array, through the
    block driver, as ``solve --save-trajectory`` runs it."""
    return solver._solve_block(
        [config], sample.values[:, None, :], [(config.n_modes, 1)],
        range(config.m_steps + 1))[0][:, :, 0, 0]


class TestImplicitEulerStep:
    def test_pure_decay_factor(self):
        op = dirichlet_laplacian(1)
        x = SpectralState(coeffs=np.array([1.0]))
        out = implicit_euler_step(x, 1.0, op, zero_map(), zero_noise(1),
                                  np.zeros(1))
        assert out.coeffs[0] == pytest.approx(0.09199966835037524, rel=1e-15)

    def test_small_tau_approaches_identity(self):
        op = dirichlet_laplacian(3)
        x = SpectralState(coeffs=np.array([1.0, -0.5, 0.25]))
        out = implicit_euler_step(x, 1e-12, op, zero_map(), zero_noise(3),
                                  np.zeros(3))
        np.testing.assert_allclose(out.coeffs, x.coeffs, rtol=1e-9)

    def test_origin_is_fixed_point(self):
        op = dirichlet_laplacian(3)
        x = SpectralState(coeffs=np.zeros(3))
        out = implicit_euler_step(x, 0.5, op, zero_map(), identity_noise(3),
                                  np.zeros(3))
        assert np.all(out.coeffs == 0.0)

    def test_dimension_mismatch(self):
        op = dirichlet_laplacian(3)
        x = SpectralState(coeffs=np.zeros(3))
        with pytest.raises(ValueError):
            implicit_euler_step(x, 0.5, op, zero_map(), identity_noise(3),
                                np.zeros(2))


class TestSolvePath:
    def test_single_step_reduces_to_euler_step(self):
        cfg = make_config(n=4, m=1)
        sample = noise_for(cfg)
        end = solve_endpoint(cfg, sample)
        manual = implicit_euler_step(cfg.initial, cfg.tau, cfg.operator,
                                     cfg.nonlinearity, cfg.noise,
                                     sample.values[:, 0])
        np.testing.assert_allclose(end.coeffs, manual.coeffs, rtol=1e-13)

    def test_single_step_with_sin(self):
        cfg = make_config(n=8, m=1, f=sine_map())
        sample = noise_for(cfg)
        end = solve_endpoint(cfg, sample)
        manual = implicit_euler_step(cfg.initial, cfg.tau, cfg.operator,
                                     cfg.nonlinearity, cfg.noise,
                                     sample.values[:, 0])
        np.testing.assert_allclose(end.coeffs, manual.coeffs, rtol=1e-12,
                                   atol=1e-15)

    def test_noise_free_geometric_decay(self):
        cfg = make_config(n=3, m=10, noise=zero_noise(3),
                          initial=np.array([1.0, 2.0, -1.0]))
        states = path_of(cfg, noise_for(cfg))
        factors = 1.0 / (1.0 + cfg.tau * cfg.operator.eigenvalues)
        assert states.shape == (11, 3)
        for m, state in enumerate(states):
            np.testing.assert_allclose(
                state, factors**m * cfg.initial.coeffs, rtol=1e-13
            )

    def test_matches_iterated_sum_formula(self):
        # X_m = R^m xi + sum_i R^{m-i} phi dW_i, to 1e-12, N<=8, M<=16
        for n, m in ((4, 8), (8, 16), (2, 5)):
            cfg = make_config(n=n, m=m, noise=identity_noise(n),
                              initial=RNG.standard_normal(n))
            sample = noise_for(cfg)
            end = solve_endpoint(cfg, sample)
            r = 1.0 / (1.0 + cfg.tau * cfg.operator.eigenvalues)
            expected = r**m * cfg.initial.coeffs
            for i in range(m):
                expected = expected + r ** (m - i) * sample.values[:, i]
            np.testing.assert_allclose(end.coeffs, expected, rtol=1e-12)

    def test_two_step_hand_unrolled(self):
        cfg = make_config(n=1, m=2, noise=identity_noise(1),
                          initial=np.array([0.3]))
        sample = noise_for(cfg)
        end = solve_endpoint(cfg, sample)
        r = 1.0 / (1.0 + cfg.tau * cfg.operator.eigenvalues[0])
        w1, w2 = sample.values[0]
        expected = r * (r * (0.3 + w1) + w2)
        assert end.coeffs[0] == pytest.approx(expected, rel=1e-14)

    def test_mode_decoupling_bitwise(self):
        cfg = make_config(n=4, m=6, noise=identity_noise(4))
        sample = noise_for(cfg)
        base = solve_endpoint(cfg, sample).coeffs
        perturbed_rows = sample.values.copy()
        perturbed_rows[2] += 10.0
        other = dataclasses.replace(sample, values=perturbed_rows)
        out = solve_endpoint(cfg, other).coeffs
        assert np.array_equal(out[[0, 1, 3]], base[[0, 1, 3]])
        assert out[2] != base[2]

    def test_unconditional_stability(self):
        for tau_scale in (0.1, 10.0, 1000.0):
            cfg = make_config(n=5, m=12, horizon=12.0 * tau_scale,
                              noise=zero_noise(5),
                              initial=RNG.standard_normal(5))
            norms = [np.linalg.norm(s) for s in path_of(cfg, noise_for(cfg))]
            assert all(b <= a * (1 + 1e-14)
                       for a, b in zip(norms, norms[1:]))

    def test_grid_mismatch_rejected(self):
        cfg = make_config(n=4, m=8)
        wrong = generate_cylindrical_fbm(4, IncrementGrid(4, cfg.tau), H, 3)
        with pytest.raises(ValueError):
            solve_endpoint(cfg, wrong)

    @pytest.mark.parametrize("horizon", [np.inf, np.nan, 0.0, -1.0])
    def test_non_finite_or_non_positive_horizon_rejected(self, horizon):
        with pytest.raises(ValueError,
                           match="horizon must be positive and finite"):
            make_config(horizon=horizon)

    def test_step_that_underflows_rejected(self):
        # a positive horizon whose step rounds to 0 is rejected with the
        # step's own message, when the config is made
        with pytest.raises(ValueError,
                           match="tau must be positive and finite, got 0.0"):
            make_config(m=2, horizon=5e-324)

    def test_too_few_modes_rejected(self):
        cfg = make_config(n=4, m=8)
        small = generate_cylindrical_fbm(2, cfg.grid(), H, 3)
        with pytest.raises(ValueError):
            solve_endpoint(cfg, small)

    def test_non_finite_state_raises(self):
        # a NaN at increment 40 of mode 0, under F = 0 and F = sin: the
        # path keeps the non-finite rows from step 41 on (solve
        # --save-trajectory names the first), the endpoint raises naming
        # its step
        for f in (zero_map(), sine_map()):
            cfg = make_config(n=4, m=64, f=f)
            values = noise_for(cfg).values.copy()
            values[0, 40] = np.nan
            sample = dataclasses.replace(noise_for(cfg), values=values)
            finite = np.isfinite(path_of(cfg, sample)).all(axis=1)
            assert finite[:41].all() and not finite[41:].any(), f
            with pytest.raises(FloatingPointError,
                               match="^non-finite state at step 64 of 64$"):
                solve_endpoint(cfg, sample)

    def test_step_ratio_must_divide_stops(self):
        cfg = make_config(n=4, m=8)
        rows = noise_for(cfg).values[:, None, :]
        with pytest.raises(ValueError, match="does not divide"):
            solver._solve_block([cfg], rows, [(4, 2)], (8, 3))
        with pytest.raises(ValueError, match="does not divide"):
            solver._solve_block([cfg], rows, [(4, 3)], (6,))


class TestBlockIncrements:
    # five circulant rows' normals (ten Cholesky rows) per group: with 7
    # modes, groups end inside the block for every B, and for B = 8 a
    # one-mode group spans two increment_rows chunks
    SMALL_BUDGET = 5 * 2 * 12 * 8

    @pytest.mark.parametrize("budget", [None, SMALL_BUDGET])
    @pytest.mark.parametrize("b", [1, 3, 8])
    @pytest.mark.parametrize("method", ["circulant", "cholesky"])
    def test_columns_equal_per_sample_increments(self, method, b, budget,
                                                 monkeypatch):
        if budget is not None:
            monkeypatch.setattr(fbm, "_ROW_CHUNK_BYTES", budget)
        cfg = make_config(n=7, m=12, method=method)
        seeds = tuple(derive_seed(5, SAMPLE_STREAM, s) for s in range(b))
        dw = _block_increments(cfg, seeds)
        assert dw.shape == (12, 7, b)
        for s, seed in enumerate(seeds):
            sample = generate_cylindrical_fbm(7, cfg.grid(), H, seed, method)
            assert np.array_equal(dw[:, :, s],
                                  sample.values.T * cfg.noise.amplitudes)

    # two circulant rows' normals (four Cholesky rows): a block of 7 * b
    # rows spans two to seven chunks of whole modes, for either method
    TINY_BUDGET = 2 * 2 * 12 * 8

    @pytest.mark.parametrize("budget", [None, TINY_BUDGET])
    @pytest.mark.parametrize("b", [1, 3, 4])
    @pytest.mark.parametrize("method", ["circulant", "cholesky"])
    def test_raw_rows_are_the_samplers_rows(self, method, b, budget,
                                            monkeypatch):
        if budget is not None:
            monkeypatch.setattr(fbm, "_ROW_CHUNK_BYTES", budget)
        cfg = make_config(n=7, m=12, method=method)
        seeds = tuple(derive_seed(9, SAMPLE_STREAM, s) for s in range(b))
        keys = mode_keys(seeds, 7)
        rows = increment_rows(cfg.grid(), H, keys, method)
        assert rows.shape == (7, b, 12)
        for k in range(7):
            for s in range(b):
                alone = increment_rows(cfg.grid(), H, [keys[k, s]], method)
                assert np.array_equal(rows[k, s], alone[0]), (k, s)

    @pytest.mark.parametrize("chunk_bytes", [2**10, 2**14, 2**20, 2**26])
    @pytest.mark.parametrize("method", ["circulant", "cholesky"])
    def test_raw_rows_equal_for_any_block_and_chunk_size(
            self, method, chunk_bytes, monkeypatch):
        """One normal drawer serves every chunk of a block: a sample's
        rows, drawn on the block's (N, B) keys, equal per-key draws
        whatever the block size or where chunks end."""
        cfg = make_config(n=7, m=40, method=method)
        seeds = tuple(derive_seed(10, SAMPLE_STREAM, s) for s in range(9))
        keys = mode_keys(seeds, 7)
        singles = np.array([[increment_rows(cfg.grid(), H, [key], method)[0]
                             for key in row] for row in keys])
        monkeypatch.setattr(fbm, "_ROW_CHUNK_BYTES", chunk_bytes)
        for b in range(1, 10):
            assert np.array_equal(
                increment_rows(cfg.grid(), H, mode_keys(seeds[:b], 7),
                               method), singles[:, :b]), b


def _endpoints(config, states):
    """A sample_map reducer: the first rung's last state, (P, B, n)."""
    return states[0][-1].transpose(1, 2, 0)


class TestSampleMap:
    """solver.sample_map: the one Monte Carlo loop of the studies and the
    regularity estimators."""

    @pytest.mark.parametrize("rungs,stops,match", [
        ([], (8,), "need at least one rung"),
        ([(4, 1), (5, 1)], (8,), r"rung \(5, 1\)"),
        ([(4, 1), (0, 2)], (8,), r"rung \(0, 2\)"),
        ([(4, 3)], (), r"rung \(4, 3\)"),
        ([(4, 2)], (4, 6, 3), r"rung \(4, 2\)"),
        ([(4, 1)], (4, 9), "stop 9 outside"),
        ([(4, 1)], (-1, 8), "stop -1 outside"),
        ([(4, 1)], (6, 4), "stop 4 outside"),
        ([(4, 1)], (), "need at least one stop"),
    ], ids=["empty", "n-above-N", "n-zero", "q-not-dividing-M",
            "q-not-dividing-a-stop", "stop-above-M", "stop-negative",
            "stops-descending", "no-stops"])
    def test_rejects_before_any_draw(self, rungs, stops, match,
                                     monkeypatch):
        cfg = make_config(n=4, m=8)
        draws = []
        draw = solver.increment_rows
        monkeypatch.setattr(solver, "increment_rows",
                            lambda *a, **k: draws.append(1) or draw(*a, **k))
        with pytest.raises(ValueError, match=match):
            solver.sample_map([cfg], 3, rungs, stops, _endpoints)
        assert draws == []
        solver.sample_map([cfg], 3, [(4, 1)], (8,), _endpoints)
        assert draws == [1]

    def test_joins_blocks_in_sample_order(self, monkeypatch):
        cfg = make_config(n=4, m=8)
        monkeypatch.setattr(solver, "_BLOCK_BYTES", 2 * 8 * 8 * 4)
        out = solver.sample_map([cfg], 5, [(4, 1), (2, 2)], (4, 8),
                                _endpoints)
        assert out.shape == (1, 5, 4)
        for s in range(5):
            sample = noise_for(cfg, derive_seed(cfg.base_seed,
                                                SAMPLE_STREAM, s))
            assert np.array_equal(out[0, s],
                                  solve_endpoint(cfg, sample).coeffs)

    @pytest.mark.parametrize("bound", ["budget", "cap"])
    @pytest.mark.parametrize("samples,cap,widths", [
        (6, 4, (3, 3)),
        (9, 8, (5, 4)),
        (5, 4, (3, 2)),
        (10, 4, (4, 4, 2)),
        (50, 8, 6 * (8,) + (2,)),
        (1, 8, (1,)),
    ])
    def test_fewest_blocks_split_even(self, samples, cap, widths, bound,
                                      monkeypatch):
        """ceil(S / cap) blocks of ceil(S / blocks) consecutive samples,
        the last one the rest, whether the byte budget or the sample cap
        sets the cap."""
        cfg = make_config(n=4, m=8)
        if bound == "budget":
            monkeypatch.setattr(solver, "_BLOCK_BYTES", cap * 8 * 8 * 4)
        else:
            monkeypatch.setattr(solver, "_BLOCK_SAMPLES", cap)
        blocks = solver._sample_blocks(cfg, samples)
        assert tuple(len(seeds) for _, seeds in blocks) == widths
        assert len(blocks) == -(-samples // cap)
        assert [first for first, _ in blocks] == \
            np.cumsum((0,) + widths[:-1]).tolist()
        assert [seed for _, seeds in blocks for seed in seeds] == [
            derive_seed(cfg.base_seed, SAMPLE_STREAM, s)
            for s in range(samples)]

    def test_memory_follows_the_even_block(self, monkeypatch):
        """6 samples under a budget of 4 run as two blocks of 3, so the
        map never holds more than 3 samples' increments, plus 1 MiB for
        the sweep's chunk scratch and staging panel (1.5 times
        _SWEEP_CHUNK_BYTES) and the sampler's work buffers (0.89 MiB
        measured). A block of 4 would hold 0.5 MiB more."""
        cfg = she_problem("she-identity", n_modes=16, m_steps=2**12,
                          base_seed=3)
        one = 8 * cfg.n_modes * cfg.m_steps
        monkeypatch.setattr(solver, "_BLOCK_BYTES", 4 * one)
        solver.sample_map([cfg], 1, [(16, 1)], (cfg.m_steps,), _endpoints)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solver.sample_map([cfg], 6, [(16, 1)], (cfg.m_steps,),
                              _endpoints)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base < 3 * one + 2**20


class TestFastSineSwitch:
    """The block driver runs F = sin through the dense sine matrix below
    solver._FAST_SINE_MIN_MODES and through the FFT from there on, each
    on the factors that the kernels docstring states."""

    def sweep(self, n, f_kind):
        cfg = make_config(n=n, m=12, horizon=0.06, f=sine_map(),
                          noise=identity_noise(n))
        values = noise_for(cfg).values
        factor = 1.0 / (1.0 + cfg.tau * cfg.operator.eigenvalues)
        expected = kernels.euler_sweep(
            cfg.initial.coeffs[:, None], factor, values.T[:, :, None],
            f_kind, *sine_factors(f_kind, cfg.tau, factor), (4, 12))
        out = solver._solve_block([cfg], values[:, None, :], [(n, 1)],
                                  (4, 12))[0]
        return out[:, :, 0], expected

    def test_dense_just_below(self):
        out, dense = self.sweep(511, kernels.F_SIN)
        assert np.array_equal(out, dense)

    def test_fast_at_constant(self):
        out, fast = self.sweep(512, kernels.F_SIN_FFT)
        assert np.array_equal(out, fast)

    def test_fast_path_builds_no_sine_matrix(self, monkeypatch):
        def refuse(n_modes):
            raise AssertionError(f"sine_matrix({n_modes}) called")

        monkeypatch.setattr(solver, "sine_matrix", refuse)
        monkeypatch.setattr(spectral, "sine_matrix", refuse)
        cfg = make_config(n=512, m=10, horizon=0.05, f=sine_map())
        end = solve_endpoint(cfg, noise_for(cfg))
        assert np.all(np.isfinite(end.coeffs))
        with pytest.raises(AssertionError, match="sine_matrix"):
            solve_endpoint(restrict_config(cfg, n_modes=511),
                           noise_for(cfg))


@pytest.mark.parametrize("n_modes, samples", [
    (8, None), (8, 3), (64, None), (64, 3), (511, None), (511, 3),
    (512, 1), (512, 8), (520, 1), (520, 8), (1024, 1), (1024, 8)])
def test_folded_sine_step_tracks_unfolded(n_modes, samples):
    """The F = sin sweep on _sweep_setup's arguments, folded through the
    dense sine matrix below 512 modes and through the zero-tailed real
    FFT from 512 on, tracks the step with every constant applied on its
    own (through the dense matrix, or from 512 modes scipy's DST-I)
    within 1e-13 relative over 2^12 steps, for one sample and for a
    block. Both run 2^8 steps at a time from the state the last chunk
    ended on, so no (2^12, N, S) increment array is built."""
    fast = n_modes >= solver._FAST_SINE_MIN_MODES
    if fast:
        pytest.importorskip("scipy.fft")
    m, chunk = 2**12, 2**8
    cfg = she_problem("she-identity", n_modes=n_modes, m_steps=m,
                      base_seed=0)
    x0, step_factor, f_kind, *factors = solver._sweep_setup(cfg)
    assert f_kind == (kernels.F_SIN_FFT if fast else kernels.F_SIN)
    tail = () if samples is None else (samples,)
    rng = np.random.default_rng(n_modes)
    folded = unfolded = x0.reshape((n_modes,) + (1,) * len(tail)) + \
        0.5 * rng.normal(size=(n_modes,) + tail)
    for m0 in range(0, m, chunk):
        dw = rng.normal(size=(chunk, n_modes) + tail) * cfg.tau**0.75
        folded = kernels.euler_sweep(folded, step_factor, dw, f_kind,
                                     *factors, (chunk,))[0]
        unfolded = unfolded_sin_sweep(unfolded, step_factor, cfg.tau, dw,
                                      (chunk,), fast=fast)[0]
        err = np.max(np.abs(folded - unfolded))
        assert err <= 1e-13 * np.max(np.abs(unfolded)), (m0 + chunk, err)


@pytest.mark.parametrize("n_modes", [16, 512])
def test_sine_scheme_converges_to_galerkin_ode(n_modes):
    """With no noise, the F = sin scheme at T = 1/8, while u(0) =
    sin(pi x) is still O(1), converges at order 1 in tau to the Galerkin
    ODE solved by Radau with its projection by quadrature
    (oracles.galerkin_sin_endpoint), on the dense step (16 modes) and
    the FFT step (512). F = -sin, sqrt(N+1) dropped from sin_in and
    tau/2 in sin_out each fail it on the step they touch."""
    pytest.importorskip("scipy.integrate")
    horizon, ladder = 1.0 / 8.0, [64, 128, 256, 512, 1024, 4096]
    ends = []
    for m in ladder:
        cfg = she_problem("she-identity", n_modes=n_modes, m_steps=m,
                          base_seed=0, horizon=horizon, with_noise=False)
        ends.append(solver._solve_sample(cfg, np.zeros((n_modes, 1, m)),
                                         (m,))[0])
    ref = galerkin_sin_endpoint(cfg.operator.eigenvalues[:n_modes],
                                cfg.initial.coeffs[:n_modes], horizon,
                                4 * n_modes)
    errors = [np.linalg.norm(end - ref) for end in ends]
    order = np.polyfit(np.log(horizon / np.array(ladder)), np.log(errors),
                       1)[0]
    assert abs(order - 1.0) <= 0.05, (order, errors)
    assert errors[-1] < 1e-4, errors


class TestStackedRungs:
    """_solve_block sweeps a block's dense F = sin rungs with q = 1 as
    one block-diagonal system when there are two or more of them with at
    most solver._STACK_MAX_MODES modes in all."""

    @staticmethod
    def spy_stacking(monkeypatch):
        built = []

        def spy(parts):
            built.append([n for rungs, *_ in parts for _, n in rungs])
            return stack(parts)

        stack = solver._stack_rungs
        monkeypatch.setattr(solver, "_stack_rungs", spy)
        return built

    def test_desk_spatial_block_sweeps_twice_per_chunk(self, monkeypatch):
        study = protocol_study("spatial", "desk", "she-identity",
                               base_seed=5, samples=8)
        n, m = study.problem.n_modes, study.problem.m_steps
        calls = []
        sweep = kernels.euler_sweep

        def spy(x0, *args):
            calls.append(x0.shape)
            return sweep(x0, *args)

        monkeypatch.setattr(kernels, "euler_sweep", spy)
        run_study(study)
        chunk = solver._SWEEP_CHUNK_BYTES // (8 * n * 8)
        chunks = -(-m // chunk)
        stacked = sum(study.ladder)
        assert calls == [(n, 8), (stacked, 8)] * chunks

    @pytest.mark.parametrize("presets", [1, 2])
    @pytest.mark.parametrize("protocol", ["desk-spatial", "criterion-7"])
    def test_stacked_rungs_match_each_rung_alone(self, protocol, presets,
                                                 monkeypatch):
        """Every stacked rung equals that rung swept alone within 1e-13
        relative, for blocks of 1 to 9 samples: at the desk spatial
        study's rungs (its N = 512 reference on the FFT beside the
        ladder 2..32) and at criterion 7's Sobolev ladder 2..32 of
        N = 32 (at 256 steps; the stacking does not depend on M)."""
        n_ref, m, ladder = {"desk-spatial": (512, 200, (2, 4, 8, 16, 32)),
                            "criterion-7": (32, 256, (2, 4, 8, 16, 32))
                            }[protocol]
        rungs = [(n, 1) for n in ladder]
        if protocol == "desk-spatial":
            rungs = [(n_ref, 1)] + rungs
        configs = [she_problem(p, n_modes=n_ref, m_steps=m, base_seed=1)
                   for p in ("she-identity", "she-trace")[:presets]]
        built = self.spy_stacking(monkeypatch)
        rng = np.random.default_rng(presets)
        stops = (m // 2, m)
        for b in range(1, 10):
            dw = rng.normal(size=(n_ref, b, m)) * configs[0].tau**0.75
            del built[:]
            stacked = solver._solve_block(configs, dw, rungs, stops)
            assert built == [list(ladder)], b
            for (n, q), states in zip(rungs, stacked):
                alone = solver._solve_block(configs, dw, [(n, q)], stops)[0]
                assert states.shape == alone.shape == (2, n, presets, b)
                err = np.max(np.abs(states - alone))
                assert err <= 1e-13 * np.max(np.abs(alone)), (b, n, err)

    @pytest.mark.parametrize("rungs", [
        [(64, 1)],
        [(64, 1), (32, 2), (16, 4)],
        [(64, 1), (128, 1)],
    ], ids=["one-rung", "one-rung-with-q-1", "over-the-cap"])
    def test_no_stack_for_one_dense_rung_or_too_many_modes(self, rungs,
                                                           monkeypatch):
        """The regularity suite's one (64, 1) rung, a rung beside others
        that aggregate steps, and two rungs of 192 modes in all (above
        the cap) each keep their own sweep and build no stacked
        operator."""
        cfg = she_problem("she-identity", n_modes=128, m_steps=64,
                          base_seed=2)
        built = self.spy_stacking(monkeypatch)
        dw = np.random.default_rng(3).normal(size=(128, 4, 64)) * 0.01
        out = solver._solve_block([cfg], dw, rungs, (64,))
        assert built == []
        assert [x.shape for x in out] == [(1, n, 1, 4) for n, _ in rungs]


def _block_widths(config, samples):
    """Samples in each of sample_map's blocks of a run of ``samples``."""
    return tuple(len(seeds) for _, seeds in
                 solver._sample_blocks(config, samples))


def _protocol_plan(axis, scale, samples=None):
    """(configs, rungs, stops, block widths) of a run_study call, as
    converge and criteria 5 and 6 make them: one preset per call, at the
    protocol's own sample count unless ``samples`` is given."""
    study = protocol_study(axis, scale, "she-identity", base_seed=0,
                           samples=samples)
    return ([study.problem], [(study.problem.n_modes, 1)] + study.rungs,
            (study.problem.m_steps,),
            _block_widths(study.problem, study.samples))


def _two_preset_plan(n, rungs, stops, samples):
    """A regularity estimate's plan: both presets, N = n, M = 2^14."""
    configs = [she_problem(p, n_modes=n, m_steps=2**14, base_seed=0)
               for p in ("she-trace", "she-identity")]
    return configs, rungs, stops, _block_widths(configs[0], samples)


def _oracle_plan(m):
    """Criterion 8 and the linear-oracle benchmark workload: one F = 0
    sample of N = 16 at a ladder step count m, through solve_endpoint."""
    problem = she_problem("she-trace", n_modes=16, m_steps=m, base_seed=0,
                          with_nonlinearity=False)
    return [problem], [(16, 1)], (m,), (1,)


# the regularity estimates' lag-difference plan: lags 8, 16, 32
_LAG_PLAN = ([(64, 1)], [2**14 - lag for lag in (32, 16, 8, 0)])


class TestBlockPlan:
    """The plan _solve_block runs at every shape a run uses, at the run's
    own sample count: the samples in each block, which rungs share one
    stacked sweep, and the chunk length and sweep calls of the widest
    block. euler_sweep is stubbed and the increments are zeros, so only
    the plan is under test, at paper scale too."""

    # id -> (plan, block widths, stacked rungs, chunk, sweep calls)
    PLANS = {
        "desk-temporal": (lambda: _protocol_plan("temporal", "desk"),
                          6 * (8,) + (2,), [], 128, 6 * 32),
        "paper-temporal": (lambda: _protocol_plan("temporal", "paper"),
                           50 * (2,), [], 256, 6 * 64),
        "desk-spatial": (lambda: _protocol_plan("spatial", "desk"),
                         6 * (8,) + (2,), [[2, 4, 8, 16, 32]], 16, 2 * 13),
        "paper-spatial": (lambda: _protocol_plan("spatial", "paper"),
                          20 * (5,), [[2, 4, 8, 16, 32]], 3, 2 * 67),
        # the regularity suite's 96 samples; criterion 7's Hölder half
        # runs 192, in the same blocks of 4
        "regularity": (lambda: _two_preset_plan(64, *_LAG_PLAN, 96),
                       24 * (4,), [], 128, 128),
        "criterion-7-sobolev": (
            lambda: _two_preset_plan(32, [(n, 1) for n in (2, 4, 8, 16, 32)],
                                     (2**14,), 128),
            16 * (8,), [[2, 4, 8, 16, 32]], 128, 128),
        "criterion-8/linear-oracle-256": (lambda: _oracle_plan(256),
                                          (1,), [], 256, 1),
        "criterion-8/linear-oracle-512": (lambda: _oracle_plan(512),
                                          (1,), [], 512, 1),
        "criterion-8/linear-oracle-1024": (lambda: _oracle_plan(1024),
                                           (1,), [], 1024, 1),
        # the benchmark workloads' per-process sample counts: 6 at the
        # regularity shape split even, never 4 + 2
        "regularity-path": (lambda: _two_preset_plan(64, *_LAG_PLAN, 6),
                            (3, 3), [], 170, 97),
        "spatial-sin": (lambda: _protocol_plan("spatial", "desk", 24),
                        (8, 8, 8), [[2, 4, 8, 16, 32]], 16, 2 * 13),
    }

    @pytest.mark.parametrize("shape", list(PLANS))
    def test_plan(self, shape, monkeypatch):
        plan, widths, stacked, chunk, sweeps = self.PLANS[shape]
        configs, rungs, stops, blocks = plan()
        assert blocks == widths
        built = TestStackedRungs.spy_stacking(monkeypatch)
        calls = []

        def stub(x0, step_factor, dw, *args):
            calls.append(dw.shape[0])
            return np.zeros((len(args[-1]),) + x0.shape)

        monkeypatch.setattr(kernels, "euler_sweep", stub)
        n, m = configs[0].n_modes, configs[0].m_steps
        solver._solve_block(configs, np.zeros((n, blocks[0], m)), rungs,
                            stops)
        assert built == stacked
        assert max(calls) == chunk
        assert len(calls) == sweeps


class TestBlockMemory:
    def test_desk_spatial_block_allocates_at_most_a_chunk_and_1_mib(self):
        """One _solve_block call on a desk spatial block (N = 512, M = 200,
        B = 8, its reference rung beside the ladder 2..32) allocates at
        most _SWEEP_CHUNK_BYTES + 1 MiB above its raw increments: the
        chunk's scratch, a staging panel of at most half of it, and the
        states, stacked operators and kept states. A first call does
        the one-time set-up (lazy imports and the like, 0.12 MiB), which
        is no working memory of a block."""
        study = protocol_study("spatial", "desk", "she-identity",
                               base_seed=5, samples=8)
        n, m = study.problem.n_modes, study.problem.m_steps
        rungs = [(n, 1)] + study.rungs
        dw = np.random.default_rng(8).normal(size=(n, 8, m)) * 1e-2
        solver._solve_block([study.problem], dw, rungs, (m,))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solver._solve_block([study.problem], dw, rungs, (m,))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - base <= solver._SWEEP_CHUNK_BYTES + 2**20


class TestLinearMildReference:
    def test_pure_heat_decay(self):
        cfg = make_config(n=4, m=8, noise=zero_noise(4),
                          initial=np.array([1.0, -2.0, 0.5, 0.1]))
        fine = generate_cylindrical_fbm(4, IncrementGrid(64, 1.0 / 64), H, 9)
        out = linear_mild_reference(cfg, fine)
        np.testing.assert_allclose(
            out.coeffs,
            np.exp(-cfg.operator.eigenvalues) * cfg.initial.coeffs,
            rtol=1e-14,
        )

    def test_single_fine_step_left_endpoint(self):
        op = SpectralOperator(eigenvalues=np.array([2.0]))
        cfg = SolverConfig(
            n_modes=1, m_steps=1, horizon=1.0, hurst=H, operator=op,
            noise=identity_noise(1), nonlinearity=zero_map(),
            initial=SpectralState(coeffs=np.array([0.4])), base_seed=5,
        )
        fine = generate_cylindrical_fbm(1, IncrementGrid(1, 1.0), H, 5)
        out = linear_mild_reference(cfg, fine)
        expected = math.exp(-2.0) * 0.4 + math.exp(-2.0) * fine.values[0, 0]
        assert out.coeffs[0] == pytest.approx(expected, rel=1e-14)

    def test_requires_linear_problem(self):
        cfg = make_config(n=2, m=4, f=sine_map())
        fine = generate_cylindrical_fbm(2, IncrementGrid(16, 1.0 / 16), H, 5)
        with pytest.raises(ValueError):
            linear_mild_reference(cfg, fine)

    def test_stochastic_part_matches_quadrature(self):
        # E[conv^2] for lambda=1, T=1, phi=1 equals the double integral
        # iint e^{-(1-u)} e^{-(1-v)} phi(u-v) du dv (Ito isometry)
        op = SpectralOperator(eigenvalues=np.array([1.0]))
        cfg = SolverConfig(
            n_modes=1, m_steps=1, horizon=1.0, hurst=H, operator=op,
            noise=identity_noise(1), nonlinearity=zero_map(),
            initial=SpectralState(coeffs=np.zeros(1)), base_seed=17,
        )
        grid = IncrementGrid(m_steps=1024, tau=1.0 / 1024)
        n_samples = 10000
        seeds = derive_seed(17, SAMPLE_STREAM, np.arange(n_samples))
        sq = np.empty(n_samples)
        # row s is generate_cylindrical_fbm(1, grid, H, seeds[s]).values[0],
        # drawn 1000 samples at a time
        for lo in range(0, n_samples, 1000):
            keys = mode_keys(seeds[lo:lo + 1000], 1)[0]
            for s, row in enumerate(increment_rows(grid, H, keys), lo):
                fine = CylindricalFbmSample(grid=grid, values=row[None])
                sq[s] = linear_mild_reference(cfg, fine).coeffs[0] ** 2
        analytic = check_lambda_phi_bound(1.0, 1.0, 0, 0, H)
        se = sq.std(ddof=1) / math.sqrt(n_samples)
        assert abs(sq.mean() - analytic) < 3 * se


class TestStochasticConvolution:
    """The F = 0 endpoint as linear_weights contracted with the fine
    increments: the mild reference and the scheme."""

    def test_zero_noise_operator(self):
        cfg = make_config(n=3, m=8, noise=zero_noise(3),
                          initial=np.zeros(3))
        fine = generate_cylindrical_fbm(3, IncrementGrid(64, 1.0 / 64), H, 1)
        assert np.all(linear_mild_reference(cfg, fine).coeffs == 0.0)

    def test_two_step_hand_unrolled(self):
        lam = 3.0
        op = SpectralOperator(eigenvalues=np.array([lam]))
        cfg = SolverConfig(
            n_modes=1, m_steps=1, horizon=1.0, hurst=H, operator=op,
            noise=identity_noise(1), nonlinearity=zero_map(),
            initial=SpectralState(coeffs=np.array([0.3])), base_seed=23,
        )
        fine = generate_cylindrical_fbm(1, IncrementGrid(2, 0.5), H, 23)
        w1, w2 = fine.values[0]
        expected = (math.exp(-lam) * 0.3 + math.exp(-lam) * w1
                    + math.exp(-lam * 0.5) * w2)
        out = linear_mild_reference(cfg, fine).coeffs[0]
        assert out == pytest.approx(expected, rel=1e-14)

    def test_index_out_of_range(self):
        for ratio in (0, 3, 5):
            with pytest.raises(ValueError, match="does not divide"):
                linear_weights(2.0, 0.25, 8, ratio)

    def test_matches_sequential_loop(self):
        # the pairwise sum against the step-by-step left-to-right sum
        cfg = make_config(n=16, m=4, noise=trace_class_noise(16))
        fine = generate_cylindrical_fbm(16, IncrementGrid(4096, 1.0 / 4096),
                                        H, 7)
        lam, phi = cfg.operator.eigenvalues, cfg.noise.amplitudes
        acc = np.zeros(16)
        scale = np.zeros(16)
        for j in range(4096):
            term = np.exp(-lam * (1.0 - j / 4096)) * phi * fine.values[:, j]
            acc += term
            scale += np.abs(term)
        expected = np.exp(-lam) * cfg.initial.coeffs + acc
        out = linear_mild_reference(cfg, fine).coeffs
        assert np.all(np.abs(out - expected) <= 1e-13 * scale)

    def test_underflowed_weights_equal_exp(self):
        # the weights numpy's exp would round to 0 are set without it
        tau, m = 1.0 / 4096, 4096
        lags = m * tau - np.arange(m) * tau
        for lam in (0.0, 1.0, 700.0, 760.0, 3000.0, 1e6):
            w, w0 = linear_weights(lam, tau, m)
            assert np.array_equal(w, np.exp(-lam * lags))
            assert w0 == np.exp(-lam * m * tau)

    @pytest.mark.parametrize("ratio", [1, 4, 16])
    def test_scheme_weights_reproduce_the_sweep(self, ratio):
        cfg = make_config(n=5, m=64, noise=trace_class_noise(5),
                          initial=np.array([0.7, -0.2, 0.1, 0.0, 0.3]))
        fine = noise_for(cfg, seed=19)
        coarse = restrict_config(cfg, m_steps=64 // ratio)
        end = solve_endpoint(coarse, aggregate_cylindrical(fine, ratio))
        lam, phi = cfg.operator.eigenvalues, cfg.noise.amplitudes
        for k in range(5):
            w, w0 = linear_weights(lam[k], cfg.tau, 64, ratio)
            value = w0 * cfg.initial.coeffs[k] + phi[k] * np.sum(
                w * fine.values[k])
            assert value == pytest.approx(end.coeffs[k], rel=1e-12,
                                          abs=1e-15)

    def test_mean_square_matches_exact_form(self):
        # E[X_n(T)^2] = phi_n^2 form(w_mild) + (e^{-lambda_n T} xi_n)^2,
        # the form being the fine grid's Toeplitz quadratic form
        cfg = make_config(n=3, m=256, noise=identity_noise(3), seed=29,
                          initial=np.array([0.5, -0.3, 0.2]))
        n_samples = 4000
        seeds = derive_seed(29, SAMPLE_STREAM, np.arange(n_samples))
        rows = increment_rows(cfg.grid(), H, mode_keys(seeds, 3).T.ravel()
                              ).reshape(n_samples, 3, 256)
        sq = np.array([
            linear_mild_reference(cfg, CylindricalFbmSample(
                grid=cfg.grid(), values=rows[s])).coeffs ** 2
            for s in range(n_samples)])
        lam, phi, xi = (cfg.operator.eigenvalues, cfg.noise.amplitudes,
                        cfg.initial.coeffs)
        form = verify._grid_form(cfg.tau, cfg.m_steps, cfg.hurst)
        for k in range(3):
            w, w0 = linear_weights(lam[k], cfg.tau, 256)
            exact = phi[k] ** 2 * form(w) + (w0 * xi[k]) ** 2
            se = sq[:, k].std(ddof=1) / math.sqrt(n_samples)
            assert abs(sq[:, k].mean() - exact) < 3 * se, k


class TestLinearSupport:
    """linear_weights on the tail that linear_support keeps."""

    LAMS = [0.1, 1.0, 10.0, 100.0, 800.0, 2500.0, 1e4, 4e4]
    RATIOS = [None, 1, 2, 64]

    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("m", [2**10, 2**16])
    def test_tail_is_the_full_vectors_tail(self, m, ratio):
        tau = 1.0 / m
        for lam in self.LAMS:
            full, w0 = linear_weights(lam, tau, m, ratio)
            support = linear_support(lam, tau, m, ratio)
            tails = (range(1, m + 1) if m <= 2**10 else
                     sorted({1, 2, 3, 63, 64, 65, support, m - 1, m}
                            | {2**k for k in range(17) if 2**k <= m}))
            for size in tails:
                w, w0_tail = linear_weights(lam, tau, m, ratio, size)
                assert w.tobytes() == full[m - size:].tobytes(), (lam, size)
                assert w0_tail == w0

    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("m", [2**10, 2**16])
    def test_dropped_weights_are_negligible(self, m, ratio):
        # every weight left out is below 2^-64 of the largest, and the
        # support keeps at most two blocks more than it must
        tau, block = 1.0 / m, ratio or 1
        for lam in self.LAMS:
            full, _ = linear_weights(lam, tau, m, ratio)
            cut = 2.0**-64 * full.max()
            support = linear_support(lam, tau, m, ratio)
            assert 1 <= support <= m
            assert np.all(full[:m - support] < cut), lam
            needed = m - np.argmax(full >= cut)
            assert support <= min(m, needed + 2 * block), lam

    def test_support_edges(self):
        for ratio in (None, 1, 4):
            assert linear_support(0.0, 0.25, 8, ratio) == 8
            assert linear_support(1e-300, 0.25, 8, ratio) == 8
            assert linear_support(1e300, 0.25, 8, ratio) == (ratio or 1) * 2
        for tail in (0, 9):
            with pytest.raises(ValueError, match="tail"):
                linear_weights(2.0, 0.25, 8, None, tail)


def full_length_mild_reference(cfg, fine):
    """linear_mild_reference contracting all M weights of every mode."""
    n, grid = cfg.n_modes, fine.grid
    coeffs = np.empty(n)
    for k in range(n):
        w, w0 = linear_weights(cfg.operator.eigenvalues[k], grid.tau,
                               grid.m_steps)
        coeffs[k] = (w0 * cfg.initial.coeffs[k] + cfg.noise.amplitudes[k]
                     * np.sum(w * fine.values[k]))
    return coeffs


class TestMildReferenceSupport:
    """linear_mild_reference builds only the weights linear_support keeps,
    and sums their products in a full-length buffer."""

    @pytest.mark.parametrize("preset", ["she-trace", "she-identity"])
    def test_bits_of_full_contraction_at_criterion_8(self, preset):
        # a sum over the support alone regroups the pairwise tree and
        # moves last bits here
        cfg = she_problem(preset, n_modes=16, m_steps=2**16, base_seed=777,
                          with_nonlinearity=False)
        for s in range(12):
            fine = generate_cylindrical_fbm(
                16, cfg.grid(), H, derive_seed(777, SAMPLE_STREAM, s))
            got = linear_mild_reference(cfg, fine).coeffs
            assert got.tobytes() == full_length_mild_reference(
                cfg, fine).tobytes(), s

    @pytest.mark.parametrize("m", [2**10, 2**16])
    def test_agrees_across_lambda(self, m):
        # the supports shrink from mode to mode, so the buffer's head must
        # be cleared of the previous mode's products
        lams = np.array([0.1, 1.0, 10.0, 100.0, 800.0, 2500.0, 1e4, 4e4])
        cfg = SolverConfig(
            n_modes=8, m_steps=4, horizon=1.0, hurst=H,
            operator=SpectralOperator(eigenvalues=lams),
            noise=identity_noise(8), nonlinearity=zero_map(),
            initial=SpectralState(coeffs=np.linspace(1.0, -1.0, 8)),
            base_seed=5)
        for seed in range(4):
            fine = generate_cylindrical_fbm(8, IncrementGrid(m, 1.0 / m), H,
                                            seed)
            np.testing.assert_allclose(
                linear_mild_reference(cfg, fine).coeffs,
                full_length_mild_reference(cfg, fine), rtol=1e-15, atol=0.0)


class TestLinearConsistency:
    def test_error_decreases_toward_mild_reference(self):
        # scheme vs the mild oracle on a shared driving path, dyadic tau
        n = 6
        fine_steps = 512
        fine = generate_cylindrical_fbm(
            n, IncrementGrid(fine_steps, 1.0 / fine_steps), H, 31
        )
        cfg_template = make_config(n=n, m=fine_steps,
                                   noise=trace_class_noise(n))
        mild = linear_mild_reference(cfg_template, fine)
        errors = []
        for m in (16, 64, 256):
            coarse = aggregate_cylindrical(fine, fine_steps // m)
            end = solve_endpoint(restrict_config(cfg_template, m_steps=m),
                                 coarse)
            errors.append(np.linalg.norm(end.coeffs - mild.coeffs))
        assert errors[0] > errors[1] > errors[2]

    def test_restrict_config_shares_arrays(self):
        cfg = make_config(n=8, m=16)
        sub = restrict_config(cfg, n_modes=4)
        assert sub.operator is cfg.operator
        assert sub.noise is cfg.noise
        assert sub.n_modes == 4
