"""Convergence-study orchestration, statistics, and report files."""

import dataclasses
import inspect
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from fracspde import experiments, fbm, solver
from fracspde.experiments import (
    PROTOCOLS,
    ConvergenceStudy,
    fit_slope,
    protocol_study,
    rms_error,
    run_study,
    she_problem,
    write_report,
)
from fracspde.fbm import aggregate_cylindrical, generate_cylindrical_fbm
from fracspde.rng import SAMPLE_STREAM, derive_seed
from fracspde.solver import restrict_config, solve_endpoint
from fracspde.spectral import scaled_identity_map
from fracspde.verify import expected_rms_errors

RNG = np.random.default_rng(8)


class TestRmsError:
    def test_constant_errors(self):
        rms, se = rms_error(np.full(10, 3.5))
        assert rms == 3.5
        assert se == 0.0

    def test_two_values(self):
        rms, se = rms_error(np.array([3.0, 4.0]))
        assert rms == pytest.approx(3.5355339059327378, rel=1e-14)

    def test_gaussian_moment(self):
        draws = np.abs(RNG.standard_normal(10000))
        rms, se = rms_error(draws)
        assert abs(rms - 1.0) < 3 * se

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            rms_error(np.array([1.0]))


class TestFitSlope:
    def test_exact_power(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0])
        slope, halfwidth = fit_slope(xs, xs**0.75)
        assert slope == pytest.approx(0.75, abs=1e-12)
        assert halfwidth == pytest.approx(0.0, abs=1e-10)

    def test_constant_ys(self):
        xs = np.array([1.0, 2.0, 4.0])
        slope, _ = fit_slope(xs, np.ones(3))
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_noisy_power(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0])
        noise = 1.0 + 0.01 * RNG.standard_normal(6)
        slope, _ = fit_slope(xs, xs**0.75 * noise)
        assert 0.70 <= slope <= 0.80

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            fit_slope(np.array([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_slope(np.array([1.0, 2.0, 3.0]), np.array([1.0, -2.0, 3.0]))


class TestStudyValidation:
    def test_temporal_requires_powers_of_two(self):
        problem = she_problem("she-trace", n_modes=4, m_steps=64, base_seed=0)
        with pytest.raises(ValueError):
            ConvergenceStudy(axis="temporal", ladder=(12, 24), samples=4,
                             problem=problem)

    def test_temporal_requires_divisibility(self):
        problem = she_problem("she-trace", n_modes=4, m_steps=64, base_seed=0)
        with pytest.raises(ValueError):
            ConvergenceStudy(axis="temporal", ladder=(128,), samples=4,
                             problem=problem)

    def test_spatial_ladder_bounded_by_reference(self):
        problem = she_problem("she-trace", n_modes=8, m_steps=10, base_seed=0)
        with pytest.raises(ValueError):
            ConvergenceStudy(axis="spatial", ladder=(4, 16), samples=4,
                             problem=problem)

    def test_spatial_ladder_entries_in_range(self):
        # a bad entry is named when the study is built, before any block
        # draws its noise
        problem = she_problem("she-trace", n_modes=8, m_steps=10, base_seed=0)
        for ladder, bad in (((0, 2, 4), 0), ((-3, 2), -3), ((2, 9), 9)):
            with pytest.raises(ValueError,
                               match=re.escape(f"rung {(bad, 1)}")):
                ConvergenceStudy(axis="spatial", ladder=ladder, samples=4,
                                 problem=problem)

    @pytest.mark.parametrize("ladder", [(2, 2, 4), (2, 2, 2), (4, 2)])
    def test_ladder_must_strictly_increase(self, ladder):
        # a repeated rung is swept twice, and (2, 2, 2) fits a NaN slope
        problem = she_problem("she-trace", n_modes=8, m_steps=10, base_seed=0)
        with pytest.raises(ValueError, match="strictly increasing"):
            ConvergenceStudy(axis="spatial", ladder=ladder, samples=4,
                             problem=problem)

    def test_unknown_method_rejected_when_built(self):
        with pytest.raises(ValueError, match="unknown method"):
            protocol_study("spatial", "desk", "she-trace", base_seed=0,
                           fbm_method="wavelet")

    def test_zero_samples_is_a_count_not_the_default(self):
        with pytest.raises(ValueError, match="samples must be >= 2"):
            protocol_study("spatial", "desk", "she-trace", base_seed=0,
                           samples=0)

    def test_desk_presets_construct(self):
        t = protocol_study("temporal", "desk", "she-trace", base_seed=1)
        assert t.ladder == (64, 128, 256, 512, 1024)
        assert t.problem.m_steps == 4096
        assert t.samples == 50
        s = protocol_study("spatial", "desk", "she-identity", base_seed=1)
        assert s.ladder == (2, 4, 8, 16, 32)
        assert s.problem.n_modes == 512
        assert s.problem.m_steps == 200

    def test_protocol_table(self):
        for (axis, scale), (n, m, ladder, samples) in PROTOCOLS.items():
            if m > fbm._CHOLESKY_MAX_STEPS:
                # a config the sampler cannot draw is rejected when built
                with pytest.raises(ValueError, match="circulant"):
                    protocol_study(axis, scale, "she-trace", base_seed=3,
                                   fbm_method="cholesky")
                method = "circulant"
            else:
                method = "cholesky"
            study = protocol_study(axis, scale, "she-trace", base_seed=3,
                                   samples=7, fbm_method=method)
            assert (study.problem.n_modes, study.problem.m_steps) == (n, m)
            assert study.ladder == ladder
            assert study.samples == 7
            assert study.problem.fbm_method == method
            assert study.rungs == (
                [(n, m // r) for r in ladder] if axis == "temporal"
                else [(r, 1) for r in ladder])
            assert protocol_study(axis, scale, "she-trace",
                                  base_seed=3).samples == samples


# The exact F = 0 slopes (trace, identity) quoted by hand in the PROTOCOLS
# comment and the README, per protocol.
QUOTED_EXACT_SLOPES = {
    ("temporal", "desk"): (0.969, 0.627),
    ("temporal", "paper"): (0.998, 0.628),
    ("spatial", "desk"): (2.097, 1.247),
    ("spatial", "paper"): (2.097, 1.247),
}


@pytest.mark.parametrize("protocol", sorted(QUOTED_EXACT_SLOPES),
                         ids="-".join)
def test_quoted_exact_slopes_match_oracle(protocol):
    # each quoted slope is the exact F = 0 oracle fitted on the protocol's
    # rungs as run_study fits them: against tau in time, as the decay
    # order in N in space
    axis, scale = protocol
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    comment = inspect.getsource(experiments)
    for preset, quoted in zip(("she-trace", "she-identity"),
                              QUOTED_EXACT_SLOPES[protocol]):
        study = protocol_study(axis, scale, preset, base_seed=0)
        p = study.problem
        linear = she_problem(preset, n_modes=p.n_modes, m_steps=p.m_steps,
                             base_seed=0, with_nonlinearity=False)
        exact = expected_rms_errors(linear, study.rungs)
        ladder = np.array(study.ladder, dtype=float)
        if axis == "temporal":
            slope = fit_slope(p.horizon / ladder, exact)[0]
        else:
            slope = -fit_slope(ladder, exact)[0]
        assert f"{slope:.3f}" == f"{quoted:.3f}", (preset, slope)
        assert f"{quoted:.3f}" in comment and f"{quoted:.3f}" in readme


class TestTemporalStudy:
    def test_deterministic_scalar_reduction(self):
        # noise = 0, F = 0, xi on mode 1: per-rung error follows the
        # closed geometric-decay formula; slope ~ 1 (deterministic Euler
        # order) once lambda^2 tau is small and the reference is fine
        problem = she_problem("she-trace", n_modes=4, m_steps=2**14,
                              base_seed=5, with_nonlinearity=False,
                              with_noise=False)
        study = ConvergenceStudy(axis="temporal", ladder=(256, 512, 1024),
                                 samples=3, problem=problem)
        report = run_study(study)
        lam = problem.operator.eigenvalues[0]
        xi = problem.initial.coeffs[0]
        ref = (1 + problem.tau * lam) ** -float(2**14) * xi
        for m, rms in zip(study.ladder, report.rms_errors):
            tau = problem.horizon / m
            expected = abs((1 + tau * lam) ** -float(m) * xi - ref)
            assert rms == pytest.approx(expected, rel=1e-12)
        assert abs(report.fitted_slope - 1.0) < 0.15
        assert np.all(report.std_errors == 0.0)

    def test_matches_linear_oracle(self):
        problem = she_problem("she-identity", n_modes=8, m_steps=128,
                              base_seed=9, with_nonlinearity=False)
        study = ConvergenceStudy(axis="temporal", ladder=(16, 32), samples=64,
                                 problem=problem)
        report = run_study(study)
        oracle = expected_rms_errors(problem, study.rungs)
        for rms, se, target in zip(report.rms_errors, report.std_errors,
                                   oracle):
            assert abs(rms - target) < 4 * se

    def test_equal_resolution_rung_is_exact_zero(self):
        problem = she_problem("she-trace", n_modes=4, m_steps=32, base_seed=2)
        study = ConvergenceStudy(axis="temporal", ladder=(16, 32), samples=3,
                                 problem=problem)
        errors = np.array([
            run_study(study).rms_errors[-1]
        ])
        assert np.all(errors == 0.0)

    def test_theoretical_slopes(self):
        for preset, theo in (("she-trace", 0.75), ("she-identity", 0.5)):
            problem = she_problem(preset, n_modes=4, m_steps=32, base_seed=2)
            study = ConvergenceStudy(axis="temporal", ladder=(4, 8, 16),
                                     samples=3, problem=problem)
            assert run_study(study).theoretical_slope == theo


class TestSpatialStudy:
    def test_mode_one_initial_zero_noise_is_exact(self):
        problem = she_problem("she-trace", n_modes=16, m_steps=20,
                              base_seed=3, with_nonlinearity=False,
                              with_noise=False)
        study = ConvergenceStudy(axis="spatial", ladder=(1, 2, 4), samples=3,
                                 problem=problem)
        report = run_study(study)
        assert np.all(report.rms_errors == 0.0)

    def test_matches_linear_oracle(self):
        problem = she_problem("she-identity", n_modes=32, m_steps=25,
                              base_seed=7, with_nonlinearity=False)
        study = ConvergenceStudy(axis="spatial", ladder=(4, 8), samples=64,
                                 problem=problem)
        report = run_study(study)
        oracle = expected_rms_errors(problem, study.rungs)
        for rms, se, target in zip(report.rms_errors, report.std_errors,
                                   oracle):
            assert abs(rms - target) < 4 * se

    def test_theoretical_slopes(self):
        for preset, theo in (("she-trace", 1.5), ("she-identity", 1.0)):
            problem = she_problem(preset, n_modes=8, m_steps=10, base_seed=1)
            study = ConvergenceStudy(axis="spatial", ladder=(2, 4, 8),
                                     samples=3, problem=problem)
            assert run_study(study).theoretical_slope == theo


class TestCoupling:
    def test_temporal_noise_is_aggregated_prefix_sum(self):
        # the coarse run's increments are exact block sums of the fine ones
        problem = she_problem("she-identity", n_modes=2, m_steps=16,
                              base_seed=13)
        fine = generate_cylindrical_fbm(
            2, problem.grid(), problem.hurst,
            derive_seed(13, SAMPLE_STREAM, 0), problem.fbm_method,
        )
        agg = aggregate_cylindrical(fine, 4)
        manual = fine.values.reshape(2, 4, 4)
        acc = manual[:, :, 0].copy()
        for r in range(1, 4):
            acc += manual[:, :, r]
        assert np.array_equal(agg.values, acc)

    def test_spatial_noise_is_mode_prefix(self):
        problem = she_problem("she-identity", n_modes=8, m_steps=4,
                              base_seed=13)
        sample = generate_cylindrical_fbm(
            8, problem.grid(), problem.hurst, 13, problem.fbm_method
        )
        small = solve_endpoint(restrict_config(problem, n_modes=3), sample)
        # solving with only the first 3 rows present gives identical bits
        import dataclasses
        trimmed = dataclasses.replace(sample, values=sample.values[:3])
        small2 = solve_endpoint(restrict_config(problem, n_modes=3), trimmed)
        assert np.array_equal(small.coeffs, small2.coeffs)


class TestWorkerIndependence:
    def test_temporal_report_identical_across_worker_counts(self):
        problem = she_problem("she-trace", n_modes=8, m_steps=64, base_seed=4)
        study = ConvergenceStudy(axis="temporal", ladder=(8, 16, 32),
                                 samples=6, problem=problem)
        one = run_study(study, workers=1)
        many = run_study(study, workers=3)
        assert np.array_equal(one.rms_errors, many.rms_errors)
        assert np.array_equal(one.std_errors, many.std_errors)
        assert one.fitted_slope == many.fitted_slope


def _per_sample_errors(study):
    """(samples, rungs) errors of the one-sample path: generate the
    sample's cylindrical fBm, aggregate it (temporal) or read its leading
    modes (spatial), and solve every resolution with solve_endpoint."""
    template = study.problem
    rows = []
    for s in range(study.samples):
        fine = generate_cylindrical_fbm(
            template.n_modes, template.grid(), template.hurst,
            derive_seed(template.base_seed, SAMPLE_STREAM, s),
            template.fbm_method)
        ref = solve_endpoint(template, fine).coeffs
        row = []
        for rung in study.ladder:
            if study.axis == "temporal":
                coarse = aggregate_cylindrical(fine, template.m_steps // rung)
                diff = ref - solve_endpoint(
                    restrict_config(template, m_steps=rung), coarse).coeffs
            else:
                diff = ref.copy()
                diff[:rung] -= solve_endpoint(
                    restrict_config(template, n_modes=rung), fine).coeffs
            row.append(np.linalg.norm(diff))
        rows.append(row)
    return np.array(rows)


def _study(axis, n, m, ladder, samples=7, preset="she-trace", seed=4):
    problem = she_problem(preset, n_modes=n, m_steps=m, base_seed=seed)
    return ConvergenceStudy(axis=axis, ladder=ladder, samples=samples,
                            problem=problem)


STUDIES = {
    "temporal": lambda: _study("temporal", 8, 64, (8, 16, 32)),
    "spatial": lambda: _study("spatial", 64, 20, (2, 4, 8)),
}


class TestStudyBlocks:
    """run_study maps fixed blocks of consecutive samples: its reports
    follow the sample index, not the worker count, block size moves only
    the last bits (a block's dense F = sin products are matrix-matrix),
    and its per-sample errors are those of the one-sample path."""

    @staticmethod
    def set_block(monkeypatch, study, size):
        p = study.problem
        monkeypatch.setattr(solver, "_BLOCK_BYTES",
                            size * 8 * p.m_steps * p.n_modes)

    @staticmethod
    def same_report(a, b):
        assert np.array_equal(a.rms_errors, b.rms_errors)
        assert np.array_equal(a.std_errors, b.std_errors)
        assert a.fitted_slope == b.fitted_slope
        assert a.slope_confidence_halfwidth == b.slope_confidence_halfwidth

    @pytest.mark.parametrize("axis", sorted(STUDIES))
    def test_worker_count_invariant(self, axis, monkeypatch):
        study = STUDIES[axis]()
        self.set_block(monkeypatch, study, 3)
        self.same_report(run_study(study, workers=1),
                         run_study(study, workers=3))

    @pytest.mark.parametrize("axis", sorted(STUDIES))
    def test_block_size_invariant(self, axis, monkeypatch):
        study = STUDIES[axis]()
        default = run_study(study)
        for size in (1, 3):
            self.set_block(monkeypatch, study, size)
            report = run_study(study)
            for name in ("rms_errors", "std_errors", "fitted_slope",
                         "slope_confidence_halfwidth"):
                np.testing.assert_allclose(getattr(report, name),
                                           getattr(default, name),
                                           rtol=1e-13, atol=0.0)

    def test_default_block_sizes(self):
        for axis, scale, size in (("temporal", "desk", 8),
                                  ("temporal", "paper", 2),
                                  ("spatial", "desk", 8),
                                  ("spatial", "paper", 5)):
            study = protocol_study(axis, scale, "she-trace", base_seed=0)
            blocks = solver._sample_blocks(study.problem, 9)
            assert len(blocks[0][1]) == size

    @pytest.mark.parametrize("axis,n,m,ladder", [
        ("temporal", 8, 64, (8, 16, 32)),
        ("temporal", 512, 16, (2, 4, 8)),
        ("spatial", 64, 20, (2, 4, 8)),
        ("spatial", 512, 10, (4, 16, 32)),
    ], ids=["temporal-dense", "temporal-fft", "spatial-dense",
            "spatial-fft"])
    def test_matches_per_sample_path(self, axis, n, m, ladder):
        # F = sin runs the dense sine matrix below 512 modes and the fast
        # DST-I from 512 on; both paths pick the same transform
        study = _study(axis, n, m, ladder, samples=5, seed=21)
        oracle = _per_sample_errors(study)
        p = study.problem
        blocked, = solver.sample_map(
            [p], study.samples, [(p.n_modes, 1)] + study.rungs,
            (p.m_steps,), experiments._rung_errors)
        np.testing.assert_allclose(blocked, oracle, rtol=1e-12, atol=0.0)
        report = run_study(study)
        np.testing.assert_allclose(
            report.rms_errors, [rms_error(col)[0] for col in oracle.T],
            rtol=1e-12, atol=0.0)

    def test_non_finite_errors_raise(self, monkeypatch):
        # F(u) = 1e12 u far above lambda_N: every sample overflows
        study = STUDIES["temporal"]()
        blowing_up = dataclasses.replace(
            study, problem=dataclasses.replace(
                study.problem, nonlinearity=scaled_identity_map(1e12)))
        self.set_block(monkeypatch, study, 3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError,
                               match=r"samples \[0, 1, 2\]"):
                run_study(blowing_up)


class TestReportFiles:
    def test_csv_and_json_round_trip(self, tmp_path):
        problem = she_problem("she-trace", n_modes=4, m_steps=32, base_seed=2)
        study = ConvergenceStudy(axis="temporal", ladder=(4, 8, 16), samples=4,
                                 problem=problem)
        report = run_study(study)
        csv_path, json_path = write_report(report, tmp_path, "example")
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "resolution,rms_error,std_error"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert int(first[0]) == 4
        assert float(first[1]) == report.rms_errors[0]  # 17g round-trips
        payload = json.loads(json_path.read_text())
        assert payload["fitted_slope"] == report.fitted_slope
        assert payload["metadata"]["noise_kind"] == "trace_class_logsq"

    def test_unfitted_slope_is_strict_json_null(self, tmp_path):
        # two rungs cannot be fitted: the report's slope is NaN, and the
        # sidecar carries null, which a strict JSON parser accepts
        problem = she_problem("she-trace", n_modes=4, m_steps=32, base_seed=2)
        study = ConvergenceStudy(axis="temporal", ladder=(4, 8), samples=4,
                                 problem=problem)
        report = run_study(study)
        assert math.isnan(report.fitted_slope)
        _, json_path = write_report(report, tmp_path, "two_rungs")

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        payload = json.loads(json_path.read_text(), parse_constant=reject)
        assert payload["fitted_slope"] is None
        assert payload["slope_confidence_halfwidth"] is None
        assert payload["rms_errors"] == list(report.rms_errors)

    def test_report_bytes_reproducible(self, tmp_path):
        problem = she_problem("she-identity", n_modes=4, m_steps=32,
                              base_seed=6)
        study = ConvergenceStudy(axis="temporal", ladder=(4, 8, 16), samples=4,
                                 problem=problem)
        a = write_report(run_study(study, workers=1), tmp_path, "a")
        b = write_report(run_study(study, workers=2), tmp_path, "b")
        assert a[0].read_bytes() == b[0].read_bytes()
        assert a[1].read_bytes() == b[1].read_bytes()


class TestPresetProblem:
    def test_initial_projection_coefficient(self):
        problem = she_problem("she-trace", n_modes=4, m_steps=8, base_seed=0)
        assert problem.initial.coeffs[0] == pytest.approx(
            0.7071067811865476, rel=1e-15
        )
        assert np.all(problem.initial.coeffs[1:] == 0.0)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            she_problem("she-unknown", n_modes=4, m_steps=8, base_seed=0)

    def test_unknown_method_rejected_when_built(self):
        with pytest.raises(ValueError, match="unknown method"):
            she_problem("she-trace", n_modes=4, m_steps=8, base_seed=0,
                        fbm_method="wavelet")

    def test_cholesky_beyond_its_limit_rejected_when_built(self):
        with pytest.raises(ValueError, match="limited to 4096 steps"):
            she_problem("she-trace", n_modes=4, m_steps=8192, base_seed=0,
                        fbm_method="cholesky")

    @pytest.mark.parametrize("n_modes", [0, -1])
    def test_no_modes_is_named_before_building(self, n_modes):
        with pytest.raises(ValueError, match="n_modes must be >= 1"):
            she_problem("she-identity", n_modes=n_modes, m_steps=8,
                        base_seed=0)

    def test_trace_second_amplitude(self):
        problem = she_problem("she-trace", n_modes=4, m_steps=8, base_seed=0)
        assert problem.noise.amplitudes[1] == pytest.approx(
            1.0201394465967895, rel=1e-14
        )
        assert problem.noise.amplitudes[0] == 0.0

    def test_identity_beta_convention(self):
        problem = she_problem("she-identity", n_modes=4, m_steps=8,
                              base_seed=0)
        assert problem.noise.beta == 0.5
