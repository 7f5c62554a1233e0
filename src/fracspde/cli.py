"""Command-line surface: generate noise, solve paths, run convergence
studies, execute the verification suites.

Exit codes: 0 success, 1 computational or check failure, 2 usage error.
Every command writes its primary outputs plus a JSON run manifest (the
manifest is written last and is the only artifact carrying wall-clock
fields, so reruns with equal flags are byte-identical elsewhere).

Flag values override config-file entries (--config, flat ``key = value``
lines mirroring flag names; a key that names no flag is rejected), which
override preset defaults.
"""

import argparse
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, experiments, verify
from .fbm import (
    HurstParameter,
    IncrementGrid,
    check_method,
    generate_cylindrical_fbm,
)
from .parallel import default_workers
from .rng import derive_seed, seed_words, standard_normal_rows
from .solver import solve_path
from .spectral import sine_grid, sine_transform
from .experiments import SHE_PRESETS, _fmt, she_problem


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


def _flag_actions(parser: argparse.ArgumentParser, command: str) -> dict:
    """dest -> argparse action, for the flags of subcommand ``command``."""
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    return {a.dest: a for a in subparsers.choices[command]._actions}


def _convert(parser: argparse.ArgumentParser, action, label: str, raw: str):
    """Convert a string as argparse converts the flag's value.

    ``label`` names the value in the message when it does not convert,
    which is a usage error (exit 2).
    """
    if action is not None and action.nargs == 0:  # store_true switch
        word = raw.lower()
        if word in ("1", "true", "yes"):
            return True
        if word in ("0", "false", "no"):
            return False
        parser.error(f"{label} = {raw!r} is not a boolean")
    convert = action.type if action is not None and action.type else str
    try:
        value = convert(raw)
    except (TypeError, ValueError):
        parser.error(f"{label} = {raw!r} is not a valid {convert.__name__}")
    if action is not None and action.choices and value not in action.choices:
        parser.error(f"{label} = {raw!r} is not one of "
                     f"{', '.join(action.choices)}")
    return value


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser,
             defaults: dict) -> dict:
    """Merge CLI flags over config-file values over defaults.

    A config key that names no flag of the subcommand is a usage error
    (exit 2), so a misspelt key never runs the default silently.
    """
    file_values = {}
    if getattr(args, "config", None):
        file_values = _read_config_file(args.config)
    unknown = [key for key in file_values if key not in defaults]
    if unknown:
        parser.error(f"config key(s) {', '.join(unknown)} name no flag of "
                     f"{args.command}")
    actions = _flag_actions(parser, args.command)
    resolved = {}
    for key, default in defaults.items():
        cli_value = getattr(args, key, None)
        action = actions.get(key)
        if cli_value == [] and action is not None and action.nargs is None:
            # argparse drops the literal "--" of "--flag=--" and stores []
            resolved[key] = _convert(parser, action,
                                     action.option_strings[0], "--")
        elif cli_value is not None:
            resolved[key] = cli_value
        elif key in file_values:
            resolved[key] = _convert(parser, action, f"config value {key}",
                                     file_values[key])
        else:
            resolved[key] = default
    return resolved


def _require_method(parser: argparse.ArgumentParser, method: str,
                    m_steps: int) -> None:
    """A generator that cannot sample m_steps is a usage error (exit 2)."""
    try:
        check_method(method, m_steps)
    except ValueError as exc:
        parser.error(str(exc))


def _require_samples(parser: argparse.ArgumentParser, samples) -> None:
    """Fewer than two samples give no standard error (exit 2)."""
    if samples is not None and samples < 2:
        parser.error(f"--samples must be >= 2, got {samples}")


def _write_manifest(out_dir: Path, command: str, tag: str, config: dict,
                    seed, artifacts: list, started: float) -> Path:
    payload = {
        "command": command,
        "config": config,
        "seed": seed,
        "artifact_paths": [str(p) for p in artifacts],
        "version": __version__,
        "duration_seconds": time.monotonic() - started,
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    path = out_dir / f"{command}_{tag}_manifest.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for artifact in artifacts:
        if not Path(artifact).exists():  # pragma: no cover - safety net
            raise RuntimeError(f"artifact missing at exit: {artifact}")
    return path


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out-dir", default=None,
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
    gen.add_argument("--hurst", type=float, default=None)
    gen.add_argument("--steps", type=int, default=None)
    gen.add_argument("--tau", type=float, default=None)
    gen.add_argument("--modes", type=int, default=None)
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--method", default=None,
                     choices=("cholesky", "circulant"))
    _add_common(gen)

    solve = sub.add_parser("solve", help="solve one path of a preset problem")
    solve.add_argument("--preset", default=None, choices=SHE_PRESETS)
    solve.add_argument("--modes", type=int, default=None)
    solve.add_argument("--steps", type=int, default=None)
    solve.add_argument("--horizon", type=float, default=None)
    solve.add_argument("--hurst", type=float, default=None)
    solve.add_argument("--seed", type=int, default=None)
    solve.add_argument("--method", default=None,
                       choices=("cholesky", "circulant"))
    solve.add_argument("--zero-noise", action="store_true", default=None)
    solve.add_argument("--zero-nonlinearity", action="store_true",
                       default=None)
    solve.add_argument("--save-trajectory", action="store_true", default=None)
    _add_common(solve)

    conv = sub.add_parser("converge", help="run a convergence study")
    conv.add_argument("--axis", default=None, choices=("time", "space"))
    conv.add_argument("--preset", default=None, choices=SHE_PRESETS)
    conv.add_argument("--paper-scale", action="store_true", default=None)
    conv.add_argument("--samples", type=int, default=None)
    conv.add_argument("--seed", type=int, default=None)
    conv.add_argument("--method", default=None,
                      choices=("cholesky", "circulant"))
    conv.add_argument("--workers", type=int, default=None)
    _add_common(conv)

    ver = sub.add_parser("verify", help="run analytic verification suites")
    ver.add_argument("--suite", default=None,
                     help="isometry | phi | lambda-phi | regularity | all")
    ver.add_argument("--samples", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--workers", type=int, default=None)
    _add_common(ver)

    return parser


# ---------------------------------------------------------------------------
# gen-fbm


def _cmd_gen_fbm(args, parser) -> int:
    cfg = _resolve(args, parser, {
        "hurst": 0.75, "steps": 64, "tau": None, "modes": 1, "seed": 0,
        "method": "circulant", "out_dir": "runs", "tag": None,
    })
    if not 0.5 < cfg["hurst"] < 1.0:
        parser.error("--hurst must be in (0.5, 1)")
    if cfg["steps"] < 1:
        parser.error("--steps must be >= 1")
    if cfg["modes"] < 1:
        parser.error("--modes must be >= 1")
    if cfg["tau"] is None:
        cfg["tau"] = 1.0 / cfg["steps"]
    if not cfg["tau"] > 0:
        parser.error("--tau must be positive")
    _require_method(parser, cfg["method"], cfg["steps"])
    started = time.monotonic()
    tag = cfg["tag"] or _timestamp()
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    sample = generate_cylindrical_fbm(
        cfg["modes"],
        IncrementGrid(m_steps=cfg["steps"], tau=cfg["tau"]),
        HurstParameter(cfg["hurst"]),
        cfg["seed"],
        cfg["method"],
    )
    csv_path = out_dir / f"fbm_{tag}.csv"
    lines = [",".join(_fmt(v) for v in row) for row in sample.values]
    csv_path.write_text("\n".join(lines) + "\n")
    _write_manifest(out_dir, "gen-fbm", tag, cfg, cfg["seed"], [csv_path],
                    started)
    print(f"wrote {csv_path} ({cfg['modes']} modes x {cfg['steps']} steps)")
    return 0


# ---------------------------------------------------------------------------
# solve


def _cmd_solve(args, parser) -> int:
    cfg = _resolve(args, parser, {
        "preset": "she-trace", "modes": 64, "steps": 256, "horizon": 1.0,
        "hurst": 0.75, "seed": 0, "method": "circulant",
        "zero_noise": False, "zero_nonlinearity": False,
        "save_trajectory": False, "out_dir": "runs", "tag": None,
    })
    if not 0.5 < cfg["hurst"] < 1.0:
        parser.error("--hurst must be in (0.5, 1)")
    if cfg["modes"] < 1 or cfg["steps"] < 1:
        parser.error("--modes and --steps must be >= 1")
    _require_method(parser, cfg["method"], cfg["steps"])
    started = time.monotonic()
    tag = cfg["tag"] or _timestamp()
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    problem = she_problem(
        cfg["preset"], n_modes=cfg["modes"], m_steps=cfg["steps"],
        base_seed=cfg["seed"], horizon=cfg["horizon"], hurst=cfg["hurst"],
        fbm_method=cfg["method"],
        with_nonlinearity=not cfg["zero_nonlinearity"],
        with_noise=not cfg["zero_noise"],
    )
    noise = generate_cylindrical_fbm(problem.n_modes, problem.grid(),
                                     problem.hurst, problem.base_seed,
                                     problem.fbm_method)
    trajectory = solve_path(problem, noise)
    end = trajectory.endpoint()
    physical = sine_transform(end.coeffs)
    xs = sine_grid(problem.n_modes)

    artifacts = []
    end_path = out_dir / f"solve_{cfg['preset']}_{tag}.csv"
    lines = ["mode,coefficient,grid_x,physical_value"]
    for n in range(problem.n_modes):
        lines.append(f"{n + 1},{_fmt(end.coeffs[n])},{_fmt(xs[n])},"
                     f"{_fmt(physical[n])}")
    end_path.write_text("\n".join(lines) + "\n")
    artifacts.append(end_path)

    if cfg["save_trajectory"]:
        traj_path = out_dir / f"solve_{cfg['preset']}_{tag}_trajectory.csv"
        rows = [",".join(_fmt(c) for c in row) for row in trajectory.states]
        traj_path.write_text("\n".join(rows) + "\n")
        artifacts.append(traj_path)

    _write_manifest(out_dir, "solve", tag, cfg, cfg["seed"], artifacts,
                    started)
    print(f"endpoint L2 norm {np.linalg.norm(end.coeffs):.6f}; "
          f"wrote {end_path}")
    return 0


# ---------------------------------------------------------------------------
# converge


def _cmd_converge(args, parser) -> int:
    cfg = _resolve(args, parser, {
        "axis": None, "preset": None, "paper_scale": False, "samples": None,
        "seed": 0, "method": "circulant", "workers": None,
        "out_dir": "runs", "tag": None,
    })
    if cfg["axis"] not in ("time", "space"):
        parser.error("--axis must be time or space")
    if cfg["preset"] not in SHE_PRESETS:
        parser.error(f"--preset must be one of {SHE_PRESETS}")
    _require_samples(parser, cfg["samples"])
    workers = cfg["workers"] if cfg["workers"] else default_workers()
    started = time.monotonic()
    tag = cfg["tag"] or _timestamp()
    out_dir = Path(cfg["out_dir"])

    axis_name = "temporal" if cfg["axis"] == "time" else "spatial"
    study = experiments.protocol_study(
        axis_name, "paper" if cfg["paper_scale"] else "desk", cfg["preset"],
        cfg["seed"], cfg["samples"], cfg["method"])
    _require_method(parser, cfg["method"], study.problem.m_steps)
    report = experiments.run_study(study, workers=workers)

    basename = (f"{axis_name}_{study.problem.noise.kind}_"
                f"H{study.problem.hurst.h}_{tag}")
    csv_path, json_path = experiments.write_report(report, out_dir, basename)
    _write_manifest(out_dir, "converge", tag, cfg, cfg["seed"],
                    [csv_path, json_path], started)
    print(f"fitted slope {report.fitted_slope:.4f} "
          f"(+- {report.slope_confidence_halfwidth:.4f}), "
          f"theoretical slope {report.theoretical_slope}")
    print(f"wrote {csv_path}")
    return 0


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
    psis = standard_normal_rows(
        seed_words([derive_seed(seed, 9)]),
        np.empty((1, trials * grid.m_steps * 12)),
    ).reshape(trials, grid.m_steps, 4, 3)
    worst_z = 0.0
    for trial in range(trials):
        check = verify.check_ito_isometry(psis[trial], grid, h, samples,
                                          derive_seed(seed, 10, trial))
        worst_z = max(worst_z,
                      abs(check.mc_lhs - check.analytic_rhs)
                      / check.std_error)
    return {"passed": worst_z <= 3.0, "worst_z_score": worst_z}


def _suite_regularity(seed: int, samples: int, workers: int) -> dict:
    presets = (("she-trace", 0.75), ("she-identity", 0.5))
    # both presets share every fBm draw; only their amplitudes differ
    reports = verify.estimate_time_regularity(
        [she_problem(preset, n_modes=64, m_steps=2**14,
                     base_seed=derive_seed(seed, 21), hurst=0.75)
         for preset, _ in presets],
        delta=0.0, lag_steps=(8, 16, 32), samples=samples, workers=workers,
    )
    results = {}
    passed = True
    for (preset, theory), report in zip(presets, reports):
        ok = abs(report.fitted_exponent - theory) <= 0.1
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


def _cmd_verify(args, parser) -> int:
    cfg = _resolve(args, parser, {
        "suite": "all", "samples": None, "seed": 0, "workers": None,
        "out_dir": "runs", "tag": None,
    })
    if cfg["suite"] not in tuple(_SUITES) + ("all",):
        parser.error(
            f"--suite must be one of {', '.join(_SUITES)} or all"
        )
    _require_samples(parser, cfg["samples"])
    names = list(_SUITES) if cfg["suite"] == "all" else [cfg["suite"]]
    default_samples = {"isometry": 10000, "regularity": 96}
    workers = cfg["workers"] if cfg["workers"] else default_workers()
    started = time.monotonic()
    tag = cfg["tag"] or _timestamp()
    out_dir = Path(cfg["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)

    results = {}
    all_passed = True
    for name in names:
        samples = cfg["samples"] or default_samples.get(name, 0)
        results[name] = _SUITES[name](cfg["seed"], samples, workers)
        all_passed &= results[name]["passed"]
        status = "PASS" if results[name]["passed"] else "FAIL"
        print(f"[{status}] suite {name}")

    report_path = out_dir / f"verify_{cfg['suite']}_{tag}.json"
    report_path.write_text(
        json.dumps({"passed": all_passed, "suites": results}, indent=2,
                   sort_keys=True, default=float) + "\n"
    )
    _write_manifest(out_dir, "verify", tag, cfg, cfg["seed"], [report_path],
                    started)
    print(f"wrote {report_path}")
    return 0 if all_passed else 1


_COMMANDS = {
    "gen-fbm": _cmd_gen_fbm,
    "solve": _cmd_solve,
    "converge": _cmd_converge,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args, parser)
    except SystemExit:
        raise
    except Exception as exc:  # exit-code contract: 1 for any failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
