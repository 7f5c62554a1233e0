"""CLI surface: flags, exit codes, file outputs, manifests."""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracspde import cli, solver
from fracspde.cli import main
from oracles import nan_draws


def run_cli(argv):
    return main([str(a) for a in argv])


# Runs each argv of fracspde.cli (JSON in sys.argv[1]) in a process of its
# own and prints their peak RSS in bytes, from os.wait4 (None if a run
# failed). Started in this small process, not in the test's: a child's
# ru_maxrss starts at the RSS of the process it was forked from.
PEAKS = """
import json, os, subprocess, sys
peaks = []
for argv in json.loads(sys.argv[1]):
    proc = subprocess.Popen([sys.executable, "-m", "fracspde.cli"] + argv,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    peaks.append(usage.ru_maxrss * 1024 if status == 0 else None)  # KiB
print(json.dumps(peaks))
"""


class TestGenFbm:
    def test_reproducible_bytes(self, tmp_path):
        args = ["gen-fbm", "--hurst", 0.75, "--steps", 8, "--tau", 0.125,
                "--modes", 2, "--seed", 7, "--method", "cholesky",
                "--out-dir"]
        assert run_cli(args + [tmp_path / "a", "--tag", "x"]) == 0
        assert run_cli(args + [tmp_path / "b", "--tag", "x"]) == 0
        a = (tmp_path / "a" / "fbm_x.csv").read_bytes()
        b = (tmp_path / "b" / "fbm_x.csv").read_bytes()
        assert a == b
        rows = a.decode().strip().splitlines()
        assert len(rows) == 2
        assert len(rows[0].split(",")) == 8

    def test_methods_differ_but_both_work(self, tmp_path):
        base = ["gen-fbm", "--hurst", 0.75, "--steps", 8, "--tau", 0.125,
                "--modes", 1, "--seed", 7, "--out-dir", tmp_path]
        assert run_cli(base + ["--method", "cholesky", "--tag", "c"]) == 0
        assert run_cli(base + ["--method", "circulant", "--tag", "f"]) == 0
        ch = (tmp_path / "fbm_c.csv").read_bytes()
        ci = (tmp_path / "fbm_f.csv").read_bytes()
        assert ch != ci

    def test_boundary_hurst_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["gen-fbm", "--hurst", 0.5, "--steps", 4,
                     "--out-dir", tmp_path])
        assert err.value.code == 2
        assert "hurst must be in" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", ["inf", "nan", "0"])
    def test_non_finite_or_zero_tau_exits_2(self, tau, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["gen-fbm", "--tau", tau, "--steps", 4,
                     "--out-dir", tmp_path / "out"])
        assert err.value.code == 2
        assert "tau must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 1])
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_seed_outside_64_bits_exits_2(self, source, seed, tmp_path,
                                          capsys):
        # derive_seed reduces a base mod 2^64: such a seed would write the
        # bytes of another seed under its own name in the manifest
        if source == "flag":
            extra = ["--seed", seed]
        else:
            extra = ["--config", _write_config(tmp_path / "run.cfg",
                                               {"seed": seed})]
        with pytest.raises(SystemExit) as err:
            run_cli(["gen-fbm", "--steps", 4, "--out-dir", tmp_path / "out"]
                    + extra)
        assert err.value.code == 2
        assert (f"seed must be in [0, 2^64), got {seed}"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_seed_range_ends_accepted(self, tmp_path):
        for seed in (0, 2**64 - 1):
            assert run_cli(["gen-fbm", "--steps", 4, "--seed", seed,
                            "--out-dir", tmp_path, "--tag", seed]) == 0
        assert ((tmp_path / "fbm_0.csv").read_bytes()
                != (tmp_path / f"fbm_{2**64 - 1}.csv").read_bytes())

    def test_bad_method_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["gen-fbm", "--method", "wavelet", "--out-dir",
                     tmp_path])
        assert err.value.code == 2

    def test_large_cholesky_exits_2(self, tmp_path, capsys):
        # rejected before the 512 MiB factor or any output is made
        with pytest.raises(SystemExit) as err:
            run_cli(["gen-fbm", "--method", "cholesky", "--steps", 8192,
                     "--out-dir", tmp_path / "out"])
        assert err.value.code == 2
        assert "circulant" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_manifest_lists_artifacts(self, tmp_path):
        assert run_cli(["gen-fbm", "--steps", 4, "--seed", 3, "--out-dir",
                        tmp_path, "--tag", "m"]) == 0
        manifest = json.loads(
            (tmp_path / "gen-fbm_m_manifest.json").read_text()
        )
        assert manifest["command"] == "gen-fbm"
        assert manifest["seed"] == 3
        for artifact in manifest["artifact_paths"]:
            assert (tmp_path / artifact).exists() or \
                json.loads(json.dumps(True))  # absolute paths also fine
        assert manifest["version"]


class TestSolve:
    def test_initial_coefficient_in_trajectory(self, tmp_path):
        assert run_cli(["solve", "--preset", "she-trace", "--modes", 4,
                        "--steps", 8, "--seed", 1, "--save-trajectory",
                        "--out-dir", tmp_path, "--tag", "t"]) == 0
        rows = (tmp_path / "solve_she-trace_t_trajectory.csv") \
            .read_text().strip().splitlines()
        assert len(rows) == 9
        first = [float(x) for x in rows[0].split(",")]
        assert first[0] == pytest.approx(0.7071067811865476, rel=1e-15)
        assert first[1:] == [0.0, 0.0, 0.0]

    def test_trajectory_peak_memory_near_states_size(self, tmp_path):
        # the trajectory run may hold its (M + 1, N) states and little else
        # beyond the endpoint run, and gen-fbm its (N, M) increments beyond
        # a one-mode run
        modes, steps = 64, 2**16
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        tail = ["--steps", str(steps), "--out-dir", str(tmp_path),
                "--tag", "m"]
        runs = [["solve", "--modes", str(modes)],
                ["solve", "--modes", str(modes), "--save-trajectory"],
                ["gen-fbm", "--modes", "1"],
                ["gen-fbm", "--modes", str(modes)]]
        argvs = json.dumps([run + tail for run in runs])
        proc = subprocess.run([sys.executable, "-c", PEAKS, argvs], env=env,
                              capture_output=True, text=True, check=True)
        peaks = json.loads(proc.stdout)
        assert None not in peaks, peaks
        solve, trajectory, gen_one, gen_all = peaks
        assert trajectory - solve <= 2 * (steps + 1) * modes * 8
        assert gen_all - gen_one <= 2 * modes * steps * 8
        rows = (tmp_path / "solve_she-trace_m_trajectory.csv").read_bytes()
        assert rows.count(b"\n") == steps + 1

    def test_endpoint_csv_shape(self, tmp_path):
        assert run_cli(["solve", "--preset", "she-identity", "--modes", 8,
                        "--steps", 16, "--seed", 2, "--out-dir", tmp_path,
                        "--tag", "e"]) == 0
        rows = (tmp_path / "solve_she-identity_e.csv") \
            .read_text().strip().splitlines()
        assert rows[0] == "mode,coefficient,grid_x,physical_value"
        assert len(rows) == 9
        cells = rows[1].split(",")
        assert float(cells[2]) == pytest.approx(1.0 / 9.0, rel=1e-14)

    def test_heat_decay_without_noise_or_nonlinearity(self, tmp_path):
        assert run_cli(["solve", "--preset", "she-trace", "--modes", 4,
                        "--steps", 4096, "--seed", 1, "--zero-noise",
                        "--zero-nonlinearity", "--out-dir", tmp_path,
                        "--tag", "d"]) == 0
        rows = (tmp_path / "solve_she-trace_d.csv") \
            .read_text().strip().splitlines()
        coeff1 = float(rows[1].split(",")[1])
        target = math.exp(-math.pi**2) / math.sqrt(2.0)
        assert coeff1 == pytest.approx(target, rel=0.02)

    def test_unknown_preset_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["solve", "--preset", "she-cubic", "--out-dir",
                     tmp_path])
        assert err.value.code == 2

    def test_large_cholesky_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["solve", "--method", "cholesky", "--steps", 8192,
                     "--modes", 2, "--out-dir", tmp_path / "out"])
        assert err.value.code == 2
        assert "circulant" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("horizon", ["inf", "nan", "0", "-1"])
    def test_non_finite_or_non_positive_horizon_exits_2(
            self, horizon, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["solve", "--horizon", horizon, "--modes", 4, "--steps",
                     8, "--out-dir", tmp_path / "out"])
        assert err.value.code == 2
        assert ("horizon must be positive and finite"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("extra, message", [
        ([], "non-finite state at step 64 of 64"),
        (["--save-trajectory"], "non-finite state at step 41 of 64"),
        (["--save-trajectory", "--zero-nonlinearity"],
         "non-finite state at step 41 of 64"),
    ], ids=["endpoint", "trajectory", "trajectory-linear"])
    def test_non_finite_state_exits_1(self, tmp_path, monkeypatch, capsys,
                                      extra, message):
        # a NaN at increment 40 of the sample's mode 0: the state after
        # step 41 is the first that is not finite
        nan_draws(monkeypatch, cli, [5], 40)
        code = run_cli(["solve", "--modes", 4, "--steps", 64, "--seed", 5,
                        "--out-dir", tmp_path, "--tag", "nan"] + extra)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.glob("*.csv"))


class TestConverge:
    def test_temporal_prints_theoretical_slope(self, tmp_path, capsys):
        assert run_cli(["converge", "--axis", "time", "--preset",
                        "she-trace", "--samples", 4, "--seed", 11,
                        "--out-dir", tmp_path, "--tag", "tt"]) == 0
        out = capsys.readouterr().out
        assert "theoretical slope 0.75" in out
        csv_path = tmp_path / "temporal_trace_class_logsq_H0.75_tt.csv"
        assert csv_path.exists()

    def test_spatial_theoretical_slopes(self, tmp_path, capsys):
        assert run_cli(["converge", "--axis", "space", "--preset",
                        "she-trace", "--samples", 4, "--seed", 11,
                        "--out-dir", tmp_path, "--tag", "s1"]) == 0
        assert "theoretical slope 1.5" in capsys.readouterr().out
        assert run_cli(["converge", "--axis", "space", "--preset",
                        "she-identity", "--samples", 4, "--seed", 11,
                        "--out-dir", tmp_path, "--tag", "s2"]) == 0
        assert "theoretical slope 1.0" in capsys.readouterr().out

    @pytest.mark.parametrize("tag", ["x/y", "/abs", "up/"])
    def test_tag_with_path_separator_exits_2(self, tag, tmp_path, capsys):
        # a tag names files in --out-dir: rejected before the study runs
        with pytest.raises(SystemExit) as err:
            run_cli(["converge", "--axis", "space", "--preset",
                     "she-identity", "--samples", 2, "--tag", tag,
                     "--out-dir", tmp_path / "out"])
        assert err.value.code == 2
        assert "tag must hold no path separator" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_reports_reproducible_and_manifest_variable(self, tmp_path):
        args = ["converge", "--axis", "time", "--preset", "she-identity",
                "--samples", 3, "--seed", 5, "--tag", "rep", "--out-dir"]
        assert run_cli(args + [tmp_path / "one", "--workers", 1]) == 0
        assert run_cli(args + [tmp_path / "two", "--workers", 2]) == 0
        name = "temporal_identity_H0.75_rep"
        for suffix in (".csv", ".json"):
            one = (tmp_path / "one" / (name + suffix)).read_bytes()
            two = (tmp_path / "two" / (name + suffix)).read_bytes()
            assert one == two
        m1 = json.loads(
            (tmp_path / "one" / "converge_rep_manifest.json").read_text()
        )
        m2 = json.loads(
            (tmp_path / "two" / "converge_rep_manifest.json").read_text()
        )
        assert m1["config"]["preset"] == m2["config"]["preset"]

    @pytest.mark.parametrize("samples", [1, 0, -4])
    def test_too_few_samples_exits_2(self, samples, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["converge", "--axis", "space", "--preset", "she-trace",
                     "--samples", samples, "--out-dir", tmp_path / "out"])
        assert err.value.code == 2
        assert "samples must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_axis_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli(["converge", "--preset", "she-trace", "--out-dir",
                     tmp_path])
        assert err.value.code == 2

    def test_preset_missing_from_config_names_the_flag(self, tmp_path,
                                                        capsys):
        # a --config without a preset leaves the flag's None default: the
        # message names the flag and its choices, not that None
        config = tmp_path / "run.cfg"
        config.write_text("axis = space\nsamples = 2\n")
        with pytest.raises(SystemExit) as err:
            run_cli(["converge", "--config", config, "--out-dir",
                     tmp_path / "out"])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "--preset must be she-identity or she-trace" in message
        assert "None" not in message
        assert not (tmp_path / "out").exists()

    def test_paper_scale_spatial_smoke(self, tmp_path, monkeypatch):
        """N_exact = 4096 runs on the fast sine transform: a dense matrix
        at or above the switch would be 128 MiB and 30 ms per step."""
        dense = solver.sine_matrix

        def small_only(n_modes):
            if n_modes >= solver._FAST_SINE_MIN_MODES:
                raise AssertionError(f"sine_matrix({n_modes}) called")
            return dense(n_modes)

        monkeypatch.setattr(solver, "sine_matrix", small_only)
        assert run_cli(["converge", "--axis", "space", "--paper-scale",
                        "--samples", 2, "--preset", "she-trace",
                        "--workers", 1, "--out-dir", tmp_path,
                        "--tag", "paper"]) == 0
        payload = json.loads(
            (tmp_path / "spatial_trace_class_logsq_H0.75_paper.json")
            .read_text()
        )
        assert payload["metadata"]["reference_resolution"] == 4096
        assert len(payload["rms_errors"]) == 5
        assert all(math.isfinite(x) and x > 0
                   for x in payload["rms_errors"] + payload["std_errors"])


class TestVerifyCommand:
    def test_phi_suite_passes(self, tmp_path):
        assert run_cli(["verify", "--suite", "phi", "--out-dir", tmp_path,
                        "--tag", "p"]) == 0
        payload = json.loads(
            (tmp_path / "verify_phi_p.json").read_text()
        )
        assert payload["passed"] is True
        assert payload["suites"]["phi"]["worst_quadrature_rel_error"] < 1e-6

    def test_lambda_phi_suite_passes(self, tmp_path):
        assert run_cli(["verify", "--suite", "lambda-phi", "--out-dir",
                        tmp_path, "--tag", "l"]) == 0

    def test_isometry_suite_passes_with_reduced_samples(self, tmp_path):
        assert run_cli(["verify", "--suite", "isometry", "--samples", 1500,
                        "--seed", 3, "--out-dir", tmp_path,
                        "--tag", "i"]) == 0

    def test_non_finite_suite_value_exits_1_with_no_report(
            self, tmp_path, monkeypatch, capsys):
        # every JSON artifact is strict: a NaN is a failure, never a
        # bare NaN token in the report
        monkeypatch.setitem(cli._SUITES, "phi", lambda *args: {
            "passed": True, "worst_quadrature_rel_error": math.nan})
        assert run_cli(["verify", "--suite", "phi", "--out-dir",
                        tmp_path / "out", "--tag", "n"]) == 1
        assert "not JSON compliant" in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("samples", [1, -4])
    def test_too_few_samples_exits_2(self, samples, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            run_cli(["verify", "--suite", "isometry", "--samples", samples,
                     "--out-dir", tmp_path / "out"])
        assert err.value.code == 2
        assert "samples must be >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("suite = meta\n")
        for source in (["--suite", "meta"], ["--config", cfg]):
            with pytest.raises(SystemExit) as err:
                run_cli(["verify", *source, "--out-dir", tmp_path / "out"])
            assert err.value.code == 2
            assert "invalid choice: 'meta'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


# (argv, message) of one bad input per case; CONVERGE is a valid converge
# argv without the flag under test
CONVERGE = ["converge", "--axis", "space", "--preset", "she-trace"]
USAGE_ERRORS = [
    (["gen-fbm", "--hurst", "0.5"], "hurst must be in (0.5, 1)"),
    (["gen-fbm", "--steps", "0"], "m_steps must be >= 1"),
    (["gen-fbm", "--modes", "0"], "modes must be >= 1"),
    (["gen-fbm", "--tau", "nan"], "tau must be positive and finite"),
    (["gen-fbm", "--tau", "inf"], "tau must be positive and finite"),
    (["gen-fbm", "--method", "cholesky", "--steps", "8192"], "circulant"),
    (["solve", "--hurst", "1.0"], "hurst must be in (0.5, 1)"),
    (["solve", "--modes", "0"], "n_modes must be >= 1"),
    (["solve", "--modes", "-1"], "n_modes must be >= 1"),
    (["solve", "--steps", "0"], "m_steps must be >= 1"),
    (["solve", "--horizon", "inf"], "horizon must be positive and finite"),
    (["solve", "--horizon", "nan"], "horizon must be positive and finite"),
    (["solve", "--horizon", "5e-324", "--steps", "2", "--modes", "4"],
     "tau must be positive and finite, got 0.0"),
    (["solve", "--method", "cholesky", "--steps", "8192"], "circulant"),
    (["converge", "--preset", "she-trace"], "--axis must be time or space"),
    (["converge", "--axis", "time"],
     "--preset must be she-identity or she-trace"),
    (CONVERGE + ["--samples", "0"], "samples must be >= 2"),
    (CONVERGE + ["--samples", "1"], "samples must be >= 2"),
    (CONVERGE + ["--workers", "0"], "workers must be >= 1"),
    (CONVERGE + ["--workers", "-1"], "workers must be >= 1"),
    (["converge", "--axis", "time", "--preset", "she-trace", "--paper-scale",
      "--method", "cholesky"], "circulant"),
    (["verify", "--samples", "0"], "samples must be >= 2"),
    (["verify", "--samples", "1"], "samples must be >= 2"),
    (["verify", "--workers", "0"], "workers must be >= 1"),
    (["verify", "--workers", "-1"], "workers must be >= 1"),
]


@pytest.mark.parametrize("argv, message", USAGE_ERRORS,
                         ids=[" ".join(argv) for argv, _ in USAGE_ERRORS])
def test_bad_input_exits_2_before_any_output(argv, message, tmp_path,
                                             capsys):
    """Every command checks its inputs before the run: a bad one exits 2
    and leaves neither an output directory nor a manifest."""
    with pytest.raises(SystemExit) as err:
        run_cli(argv + ["--out-dir", tmp_path / "out", "--tag", "bad"])
    assert err.value.code == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    def test_flag_overrides_file_overrides_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("hurst = 0.8\nsteps = 4  # trailing comment\n")
        assert run_cli(["gen-fbm", "--config", cfg, "--hurst", 0.9,
                        "--seed", 1, "--out-dir", tmp_path,
                        "--tag", "cf"]) == 0
        manifest = json.loads(
            (tmp_path / "gen-fbm_cf_manifest.json").read_text()
        )
        assert manifest["config"]["hurst"] == 0.9  # flag wins
        assert manifest["config"]["steps"] == 4  # file beats default
        assert manifest["config"]["modes"] == 1  # default

    def test_malformed_config_is_computational_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("steps 4\n")
        assert run_cli(["gen-fbm", "--config", cfg, "--out-dir",
                        tmp_path]) == 1

    # Flags whose default is None: their file values must still be
    # converted with the flag's type, not left as strings.
    def test_file_float_without_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("tau = 0.1\nsteps = 4\n")
        assert run_cli(["gen-fbm", "--config", cfg, "--out-dir", tmp_path,
                        "--tag", "t"]) == 0
        manifest = json.loads(
            (tmp_path / "gen-fbm_t_manifest.json").read_text()
        )
        assert manifest["config"]["tau"] == 0.1

    def test_file_samples_for_converge(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = 3\n")
        assert run_cli(["converge", "--axis", "space", "--preset",
                        "she-identity", "--config", cfg, "--workers", 1,
                        "--out-dir", tmp_path, "--tag", "s"]) == 0
        manifest = json.loads(
            (tmp_path / "converge_s_manifest.json").read_text()
        )
        assert manifest["config"]["samples"] == 3

    def test_file_workers_and_samples_for_verify(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 2\nsamples = 2\n")
        code = run_cli(["verify", "--suite", "regularity", "--config", cfg,
                        "--out-dir", tmp_path, "--tag", "v"])
        # with two samples the statistical verdict may fail (exit 1), but
        # the suite must run and write its report
        assert code in (0, 1)
        assert (tmp_path / "verify_regularity_v.json").exists()
        manifest = json.loads(
            (tmp_path / "verify_v_manifest.json").read_text()
        )
        assert manifest["config"]["workers"] == 2
        assert manifest["config"]["samples"] == 2

    def test_unconvertible_file_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("samples = three\n")
        with pytest.raises(SystemExit) as err:
            run_cli(["converge", "--axis", "space", "--preset",
                     "she-identity", "--config", cfg, "--out-dir", tmp_path])
        assert err.value.code == 2
        assert "samples = 'three'" in capsys.readouterr().err

    def test_unknown_file_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stepz = 4\n")
        with pytest.raises(SystemExit) as err:
            run_cli(["gen-fbm", "--config", cfg, "--out-dir", tmp_path,
                     "--tag", "k"])
        assert err.value.code == 2
        assert "stepz" in capsys.readouterr().err
        assert not (tmp_path / "fbm_k.csv").exists()


# Words the flat config format carries unchanged: no '#' (comment) and no
# surrounding blanks.
WORDS = st.from_regex(r"[A-Za-z0-9_.-]{1,12}", fullmatch=True)


def _flag_values(action):
    """Strategy for (command-line word, config-file text) of one flag."""
    flag = action.option_strings[0]
    if action.nargs == 0:  # a switch: present on the line, truthy in a file
        return st.sampled_from(["1", "true", "yes", "True"]).map(
            lambda word: (flag, word))
    if action.choices:
        values = st.sampled_from(sorted(action.choices))
    elif action.type is int:
        values = st.integers(-2**40, 2**40).map(str)
    elif action.type is float:
        values = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    else:
        values = WORDS
    return values.map(lambda text: (f"{flag}={text}", text))


def _file_texts(action):
    """Strategy for the config-file text of one flag; a switch's may be
    false."""
    if action.nargs == 0:
        return st.sampled_from(["1", "true", "yes", "True", "0", "false",
                                "no", "NO"])
    return _flag_values(action).map(lambda value: value[1])


def _as_value(action, text):
    """The value that ``text`` stands for as the flag's value."""
    if action.nargs == 0:
        return text.lower() in ("1", "true", "yes")
    return (action.type or str)(text)


def _command_flags(command):
    """dest -> argparse action, for the flags of ``command``."""
    subparsers = next(a for a in cli._build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in subparsers.choices[command]._actions
            if a.dest not in ("help", "config")}


@st.composite
def _flag_sets(draw):
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = _command_flags(command)
    chosen = draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    return command, {dest: draw(_flag_values(flags[dest]))
                     for dest in chosen}


@st.composite
def _placed_flags(draw):
    """A command, and for some of its flags a command-line (word, text),
    a config-file text, or both."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = _command_flags(command)
    line, file = {}, {}
    for dest in draw(st.lists(st.sampled_from(sorted(flags)), unique=True)):
        where = draw(st.sampled_from(["line", "file", "both"]))
        if where != "file":
            line[dest] = draw(_flag_values(flags[dest]))
        if where != "line":
            file[dest] = draw(_file_texts(flags[dest]))
    return command, line, file


def _write_config(path, values):
    path.write_text("".join(f"{dest} = {text}\n"
                            for dest, text in values.items()))
    return str(path)


# every command's defaults, as its run manifest records them
DEFAULTS = {
    "gen-fbm": {
        "hurst": 0.75, "steps": 64, "tau": None, "modes": 1, "seed": 0,
        "method": "circulant", "out_dir": "runs", "tag": None,
    },
    "solve": {
        "preset": "she-trace", "modes": 64, "steps": 256, "horizon": 1.0,
        "hurst": 0.75, "seed": 0, "method": "circulant",
        "zero_noise": False, "zero_nonlinearity": False,
        "save_trajectory": False, "out_dir": "runs", "tag": None,
    },
    "converge": {
        "axis": None, "preset": None, "paper_scale": False, "samples": None,
        "seed": 0, "method": "circulant", "workers": 1,
        "out_dir": "runs", "tag": None,
    },
    "verify": {
        "suite": "all", "samples": None, "seed": 0, "workers": 1,
        "out_dir": "runs", "tag": None,
    },
}


class TestConfigRoundTrip:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_defaults_as_manifests_record_them(self, command):
        assert cli._parse_args(cli._build_parser(), [command]) == (
            command, DEFAULTS[command])

    @settings(max_examples=60, deadline=None, database=None)
    @given(case=_flag_sets())
    def test_file_value_resolves_like_flag(self, case):
        """Every value written to a config file resolves to what the same
        value resolves to as a flag."""
        command, values = case
        argv = [command] + [word for word, _ in values.values()]
        from_flags = cli._parse_args(cli._build_parser(), argv)
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_config(Path(tmp) / "run.cfg",
                                 {dest: text
                                  for dest, (_, text) in values.items()})
            from_file = cli._parse_args(cli._build_parser(),
                                        [command, "--config", path])
        assert from_file == from_flags
        for dest in values:
            assert type(from_file[1][dest]) is type(from_flags[1][dest])

    @settings(max_examples=60, deadline=None, database=None,
              derandomize=True)
    @given(case=_placed_flags())
    def test_flag_over_file_over_default(self, case):
        """A flag on the command line wins over its config-file value,
        which wins over the parser's default."""
        command, line, file = case
        flags = _command_flags(command)
        with tempfile.TemporaryDirectory() as tmp:
            path = _write_config(Path(tmp) / "run.cfg", file)
            _, cfg = cli._parse_args(
                cli._build_parser(),
                [command, "--config", path] + [w for w, _ in line.values()])
        for dest, action in flags.items():
            if dest in line:
                want = _as_value(action, line[dest][1])
            elif dest in file:
                want = _as_value(action, file[dest])
            else:
                want = action.default
            assert cfg[dest] == want, dest
            assert type(cfg[dest]) is type(want), dest

    @pytest.mark.parametrize("dest", ["out_dir", "tag"])
    def test_double_dash_value_resolves_like_file(self, dest, tmp_path):
        """argparse stores "--flag=--" as []; it resolves to "--", as the
        same value in a config file does."""
        flag = "--" + dest.replace("_", "-")
        from_flag = cli._parse_args(cli._build_parser(),
                                    ["solve", f"{flag}=--"])
        path = _write_config(tmp_path / "run.cfg", {dest: "--"})
        from_file = cli._parse_args(cli._build_parser(),
                                    ["solve", "--config", path])
        assert from_flag == from_file
        assert from_flag[1][dest] == "--"

    def test_double_dash_seed_exits_2_as_in_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            cli._parse_args(cli._build_parser(), ["solve", "--seed=--"])
        assert err.value.code == 2
        assert "invalid int value: '--'" in capsys.readouterr().err
        path = _write_config(tmp_path / "run.cfg", {"seed": "--"})
        with pytest.raises(SystemExit) as err:
            cli._parse_args(cli._build_parser(),
                            ["solve", "--config", path])
        assert err.value.code == 2
        assert ("config value seed = '--': invalid int value: '--'"
                in capsys.readouterr().err)
