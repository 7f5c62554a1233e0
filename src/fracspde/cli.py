"""Command-line surface: generate noise, solve paths, run convergence
studies, execute the verification suites.

Exit codes: 0 success, 1 computational or check failure, 2 usage error.
Each command is a check and a run. The check builds the run's inputs
from the library types, whose ValueError is a usage error raised before
anything is written; main is the one frame around the run: it times it,
makes the output directory and writes the JSON run manifest last (the
only artifact carrying wall-clock fields, so reruns with equal flags are
byte-identical elsewhere).

Each flag's default is declared once, in the parser. Config-file values
(--config, flat ``key = value`` lines mirroring flag names; a key that
names no flag is rejected) are converted as their flags' values and
become the command's defaults, so a flag on the command line wins.
"""

import argparse
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, experiments, verify
from .fbm import (
    GENERATOR_METHODS,
    HurstParameter,
    IncrementGrid,
    check_method,
    increment_rows,
    mode_keys,
)
from .rng import derive_seed
from .solver import SolverConfig, _solve_sample
from .spectral import sine_grid, sine_transform
from .experiments import SHE_PRESETS, she_problem


def _timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%SZ")


def _read_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; '#' starts a comment."""
    values = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val
    return values


def _value(parser: argparse.ArgumentParser, action, label: str, raw: str):
    """Convert a string as argparse converts the flag's value; a switch
    takes 1/true/yes or 0/false/no.

    ``label`` names the value in the message when it does not convert or
    is not one of the flag's choices, which is a usage error (exit 2).
    """
    if action.nargs == 0:  # store_true switch
        word = raw.lower()
        if word in ("1", "true", "yes"):
            return True
        if word in ("0", "false", "no"):
            return False
        parser.error(f"{label} = {raw!r} is not a boolean")
    try:
        value = parser._get_value(action, raw)
        parser._check_value(action, value)
    except argparse.ArgumentError as exc:
        parser.error(f"{label} = {raw!r}: {exc.message}")
    return value


def _parse_args(parser: argparse.ArgumentParser, argv) -> tuple:
    """(command, cfg): cfg maps each flag of the command to its value.

    Values of a --config file are converted as their flags' values and
    become the command's defaults, so a flag on the command line wins over
    the file, which wins over the parser's default. A config key that
    names no flag of the command is a usage error (exit 2), so a misspelt
    key never runs the default silently.
    """
    args = parser.parse_args(argv)
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)
               ).choices[args.command]
    actions = {a.dest: a for a in sub._actions
               if a.dest not in ("help", "config")}
    if args.config:
        file_values = _read_config_file(args.config)
        unknown = [key for key in file_values if key not in actions]
        if unknown:
            sub.error(f"config key(s) {', '.join(unknown)} name no flag of "
                      f"{args.command}")
        sub.set_defaults(**{
            key: _value(sub, actions[key], f"config value {key}", raw)
            for key, raw in file_values.items()})
        args = parser.parse_args(argv)
    cfg = vars(args)
    command = cfg.pop("command")
    del cfg["config"]
    for dest, action in actions.items():
        if cfg[dest] == [] and action.nargs is None:
            # argparse drops the literal "--" of "--flag=--" and stores []
            cfg[dest] = _value(sub, action, action.option_strings[0], "--")
    return command, cfg


def _write_manifest(out_dir: Path, command: str, tag: str, config: dict,
                    artifacts: list, started: float) -> None:
    payload = {
        "command": command,
        "config": config,
        "seed": config["seed"],
        "artifact_paths": [str(p) for p in artifacts],
        "version": __version__,
        "duration_seconds": time.monotonic() - started,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    experiments.write_json(out_dir / f"{command}_{tag}_manifest.json",
                           payload)
    for artifact in artifacts:
        if not Path(artifact).exists():  # pragma: no cover - safety net
            raise RuntimeError(f"artifact missing at exit: {artifact}")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="runs",
                        help="output directory (default: runs)")
    parser.add_argument("--tag", default=None,
                        help="output name tag (default: UTC timestamp)")
    parser.add_argument("--config", default=None,
                        help="flat key = value config file")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracspde",
        description="Spectral Galerkin / implicit Euler solver for SPDEs "
                    "driven by fractional noise (H > 1/2)",
    )
    parser.add_argument("--version", action="version",
                        version=f"fracspde {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-fbm", help="sample cylindrical fBm increments")
    gen.add_argument("--hurst", type=float, default=0.75)
    gen.add_argument("--steps", type=int, default=64)
    gen.add_argument("--tau", type=float, default=None,
                     help="step size (default: 1 / steps)")
    gen.add_argument("--modes", type=int, default=1)
    gen.add_argument("--method", default="circulant",
                     choices=GENERATOR_METHODS)
    _add_common(gen)

    solve = sub.add_parser("solve", help="solve one path of a preset problem")
    solve.add_argument("--preset", default="she-trace", choices=SHE_PRESETS)
    solve.add_argument("--modes", type=int, default=64)
    solve.add_argument("--steps", type=int, default=256)
    solve.add_argument("--horizon", type=float, default=1.0)
    solve.add_argument("--hurst", type=float, default=0.75)
    solve.add_argument("--method", default="circulant",
                       choices=GENERATOR_METHODS)
    solve.add_argument("--zero-noise", action="store_true")
    solve.add_argument("--zero-nonlinearity", action="store_true")
    solve.add_argument("--save-trajectory", action="store_true")
    _add_common(solve)

    conv = sub.add_parser("converge", help="run a convergence study")
    conv.add_argument("--axis", default=None, choices=("time", "space"))
    conv.add_argument("--preset", default=None, choices=SHE_PRESETS)
    conv.add_argument("--paper-scale", action="store_true")
    conv.add_argument("--samples", type=int, default=None)
    conv.add_argument("--method", default="circulant",
                      choices=GENERATOR_METHODS)
    conv.add_argument("--workers", type=int, default=1)
    _add_common(conv)

    ver = sub.add_parser("verify", help="run analytic verification suites")
    ver.add_argument("--suite", default="all", choices=(*_SUITES, "all"))
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--workers", type=int, default=1)
    _add_common(ver)

    return parser


# ---------------------------------------------------------------------------
# gen-fbm


def _check_gen_fbm(cfg: dict) -> tuple:
    if cfg["tau"] is None and cfg["steps"] >= 1:
        cfg["tau"] = 1.0 / cfg["steps"]  # the manifest records the step run
    grid = IncrementGrid(m_steps=cfg["steps"], tau=cfg["tau"])
    check_method(cfg["method"], grid.m_steps)
    if cfg["modes"] < 1:
        raise ValueError(f"modes must be >= 1, got {cfg['modes']}")
    return grid, HurstParameter(cfg["hurst"])


def _run_gen_fbm(inputs: tuple, cfg: dict, out_dir: Path, tag: str) -> tuple:
    grid, hurst = inputs
    rows = increment_rows(grid, hurst, mode_keys([cfg["seed"]], cfg["modes"]),
                          cfg["method"])
    csv_path = out_dir / f"fbm_{tag}.csv"
    experiments.write_rows(csv_path, rows[:, 0])
    print(f"wrote {csv_path} ({cfg['modes']} modes x {cfg['steps']} steps)")
    return 0, [csv_path]


# ---------------------------------------------------------------------------
# solve


def _check_solve(cfg: dict) -> SolverConfig:
    return she_problem(
        cfg["preset"], n_modes=cfg["modes"], m_steps=cfg["steps"],
        base_seed=cfg["seed"], horizon=cfg["horizon"], hurst=cfg["hurst"],
        fbm_method=cfg["method"],
        with_nonlinearity=not cfg["zero_nonlinearity"],
        with_noise=not cfg["zero_noise"],
    )


def _run_solve(problem: SolverConfig, cfg: dict, out_dir: Path,
               tag: str) -> tuple:
    dw = increment_rows(problem.grid(), problem.hurst,
                        mode_keys([problem.base_seed], problem.n_modes),
                        problem.fbm_method)
    m = problem.m_steps
    stops = range(m + 1) if cfg["save_trajectory"] else (m,)
    states = _solve_sample(problem, dw, stops)
    coeffs = states[-1]

    end_path = out_dir / f"solve_{cfg['preset']}_{tag}.csv"
    experiments.write_rows(end_path, np.column_stack((
        np.arange(1, problem.n_modes + 1), coeffs,
        sine_grid(problem.n_modes), sine_transform(coeffs))),
        "mode,coefficient,grid_x,physical_value")
    artifacts = [end_path]

    if cfg["save_trajectory"]:
        traj_path = out_dir / f"solve_{cfg['preset']}_{tag}_trajectory.csv"
        experiments.write_rows(traj_path, states)
        artifacts.append(traj_path)

    print(f"endpoint L2 norm {np.linalg.norm(coeffs):.6f}; "
          f"wrote {end_path}")
    return 0, artifacts


# ---------------------------------------------------------------------------
# converge


def _check_converge(cfg: dict) -> experiments.ConvergenceStudy:
    axis = {"time": "temporal", "space": "spatial"}.get(cfg["axis"])
    if axis is None:
        raise ValueError("--axis must be time or space")
    if cfg["preset"] is None:
        raise ValueError(f"--preset must be {' or '.join(SHE_PRESETS)}")
    return experiments.protocol_study(
        axis, "paper" if cfg["paper_scale"] else "desk",
        cfg["preset"], cfg["seed"], cfg["samples"], cfg["method"])


def _run_converge(study: experiments.ConvergenceStudy, cfg: dict,
                  out_dir: Path, tag: str) -> tuple:
    report = experiments.run_study(study, workers=cfg["workers"])
    basename = (f"{study.axis}_{study.problem.noise.kind}_"
                f"H{study.problem.hurst.h}_{tag}")
    csv_path, json_path = experiments.write_report(report, out_dir, basename)
    print(f"fitted slope {report.fitted_slope:.4f} "
          f"(+- {report.slope_confidence_halfwidth:.4f}), "
          f"theoretical slope {report.theoretical_slope}")
    print(f"wrote {csv_path}")
    return 0, [csv_path, json_path]


# ---------------------------------------------------------------------------
# verify


def _suite_phi(seed: int, samples: int, workers: int) -> dict:
    hs = (0.55, 0.75, 0.95)
    worst_rel = 0.0
    bound_ok = True
    diag_ok = True
    for h_val in hs:
        h = HurstParameter(h_val)
        diag_ok &= verify.check_phi_cell_integral(3, 3, h).analytic == 1.0
        for k in range(1, 11):
            cell = verify.check_phi_cell_integral(1 + k, 1, h)
            worst_rel = max(worst_rel,
                            abs(cell.quadrature - cell.analytic)
                            / cell.analytic)
            bound_ok &= cell.analytic <= cell.bound + 1e-15
    passed = diag_ok and bound_ok and worst_rel <= 1e-6
    return {"passed": passed, "worst_quadrature_rel_error": worst_rel,
            "diagonal_exact": diag_ok, "bound_holds": bound_ok}


def _suite_lambda_phi(seed: int, samples: int, workers: int) -> dict:
    # The scaled integral increases monotonically to its lambda -> inf
    # plateau, so boundedness is asserted against the largest lambda*t
    # value and decade ratios are only meaningful once lambda*t >= 10.
    h = HurstParameter(0.75)
    lambdas = (10.0, 100.0, 1000.0, 10000.0)
    worst_ratio = 0.0
    bounded = True
    for k1 in (0, 1):
        for k2 in (0, 1):
            cap = verify.check_lambda_phi_bound(lambdas[-1], 10.0, k1, k2, h)
            for t in (0.1, 1.0, 10.0):
                vals = [verify.check_lambda_phi_bound(lam, t, k1, k2, h)
                        for lam in lambdas]
                bounded &= max(vals) <= cap * (1.0 + 1e-9)
                for i in range(len(vals) - 1):
                    if lambdas[i] * t >= 10.0:
                        worst_ratio = max(worst_ratio, vals[i + 1] / vals[i])
    passed = bounded and worst_ratio <= 2.0
    return {"passed": passed, "bounded_by_plateau": bounded,
            "worst_plateau_decade_ratio": worst_ratio}


def _suite_isometry(seed: int, samples: int, workers: int) -> dict:
    h = HurstParameter(0.75)
    grid = IncrementGrid(m_steps=6, tau=0.25)
    trials = 5
    psis = np.random.default_rng(derive_seed(seed, 9)).standard_normal(
        (trials, grid.m_steps, 4, 3))
    worst_z = 0.0
    for trial in range(trials):
        check = verify.check_ito_isometry(psis[trial], grid, h, samples,
                                          derive_seed(seed, 10, trial))
        worst_z = max(worst_z,
                      abs(check.mc_lhs - check.analytic_rhs)
                      / check.std_error)
    return {"passed": worst_z <= 3.0, "worst_z_score": worst_z}


def _suite_regularity(seed: int, samples: int, workers: int) -> dict:
    presets = ("she-trace", "she-identity")
    # both presets share every fBm draw; only their amplitudes differ
    reports = verify.estimate_time_regularity(
        [she_problem(preset, n_modes=64, m_steps=2**14,
                     base_seed=derive_seed(seed, 21), hurst=0.75)
         for preset in presets],
        delta=0.0, lag_steps=(8, 16, 32), samples=samples, workers=workers,
    )
    results = {}
    passed = True
    for preset, report in zip(presets, reports):
        ok = abs(report.fitted_exponent - report.theoretical_exponent) <= 0.1
        passed &= ok
        results[preset] = {
            "fitted_exponent": report.fitted_exponent,
            "theoretical_exponent": report.theoretical_exponent,
            "passed": ok,
        }
    return {"passed": passed, "holder": results}


_SUITES = {
    "phi": _suite_phi,
    "lambda-phi": _suite_lambda_phi,
    "isometry": _suite_isometry,
    "regularity": _suite_regularity,
}


def _check_verify(cfg: dict) -> dict:
    """Suite name -> its sample count."""
    if cfg["samples"] is not None and cfg["samples"] < 2:
        raise ValueError(f"samples must be >= 2, got {cfg['samples']}")
    names = list(_SUITES) if cfg["suite"] == "all" else [cfg["suite"]]
    default_samples = {"isometry": 10000, "regularity": 96}
    return {name: (default_samples.get(name, 0) if cfg["samples"] is None
                   else cfg["samples"]) for name in names}


def _run_verify(suites: dict, cfg: dict, out_dir: Path, tag: str) -> tuple:
    results = {}
    all_passed = True
    for name, samples in suites.items():
        results[name] = _SUITES[name](cfg["seed"], samples, cfg["workers"])
        all_passed &= results[name]["passed"]
        status = "PASS" if results[name]["passed"] else "FAIL"
        print(f"[{status}] suite {name}")

    report_path = out_dir / f"verify_{cfg['suite']}_{tag}.json"
    experiments.write_json(report_path,
                           {"passed": all_passed, "suites": results})
    print(f"wrote {report_path}")
    return (0 if all_passed else 1), [report_path]


# command -> (check, run). check(cfg) builds the run's inputs and raises
# ValueError on a bad one; run(inputs, cfg, out_dir, tag) returns the exit
# code and the artifacts it wrote.
_COMMANDS = {
    "gen-fbm": (_check_gen_fbm, _run_gen_fbm),
    "solve": (_check_solve, _run_solve),
    "converge": (_check_converge, _run_converge),
    "verify": (_check_verify, _run_verify),
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        command, cfg = _parse_args(parser, argv)
        check, run = _COMMANDS[command]
        try:
            if cfg.get("workers", 1) < 1:
                raise ValueError(f"workers must be >= 1, got {cfg['workers']}")
            if not 0 <= cfg["seed"] < 2**64:
                # derive_seed reduces a base mod 2^64: another seed's draws
                raise ValueError(f"seed must be in [0, 2^64), got "
                                 f"{cfg['seed']}")
            if cfg["tag"] and Path(cfg["tag"]).name != cfg["tag"]:
                # a tag names files in --out-dir, never a directory
                raise ValueError(f"tag must hold no path separator, got "
                                 f"{cfg['tag']!r}")
            inputs = check(cfg)
        except ValueError as exc:  # usage error: nothing is written
            parser.error(str(exc))
        started = time.monotonic()
        tag = cfg["tag"] or _timestamp()
        out_dir = Path(cfg["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        code, artifacts = run(inputs, cfg, out_dir, tag)
        _write_manifest(out_dir, command, tag, cfg, artifacts, started)
        return code
    except SystemExit:
        raise
    except Exception as exc:  # exit-code contract: 1 for any failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
