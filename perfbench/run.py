"""Monte Carlo throughput benchmark for fracspde.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload in fresh single-threaded processes, one at a time, until
S seconds have passed (at least five with ``--trace 0``). Process 0 runs
the workload at its reference seed and must reproduce the values recorded in
perfbench/reference.json; the others run seeds drawn from N. The run
checks every output, then prints one line per metric and, last, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones; their times are
in seconds of a host of fixed speed, as measured by the kernel each process
runs between samples (perfbench/hostspeed.py). With ``--trace 1`` the run
measures untraced for S/2 seconds, then reruns the same processes with
every public fracspde function wrapped in a span (perfbench/tracing.py);
the per-layer metrics come from that traced pass, whose reports must be
byte-identical to the untraced ones. A JSON record with the environment,
every process and the full span table is written under .perfbench_out/.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracing
from workload import PIN_ENV, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SCRIPT = Path(__file__).resolve().with_name("workload.py")
OUT_ROOT = ROOT / ".perfbench_out"
# setup_s is a median over a run's processes: take at least this many.
MIN_PROCESSES = 5
# A run must end within 180 s; a process still running at this point of
# the run is killed and counted as failed.
RUN_BUDGET_S = 170

END_TO_END = {"samples_per_s": "1/s", "setup_s": "s", "peak_rss_mib": "MiB"}
CHECK_METRICS = {
    "check.reference_identical_files": "count/run",
    "check.regularity_passed_frac": "frac",
    "check.oracle_max_abs_z": "SE",
}


def process_seeds(seed: int, reference_seed: int):
    """Seed of each process: the reference seed first, then draws from seed."""
    draw = random.Random(seed)
    yield reference_seed
    while True:
        yield draw.randrange(1, 2**31)


def spawn(workload: str, seed: int, samples: int, out: Path,
          traced: bool = False, timeout: float = RUN_BUDGET_S) -> dict:
    """Run one workload process to completion and return its result."""
    env = dict(os.environ, **PIN_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(WORKLOAD_SCRIPT), workload, "--seed",
           str(seed), "--samples", str(samples), "--out", str(out)]
    cmd += ["--trace"] * traced
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], cwd=ROOT, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=timeout)
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"workload process exited {proc.returncode}: "
                         f"{tail[0]}", "seed": seed, "out": str(out)}
    result = json.loads(result_path.read_text())
    if result["setup_s"] is None:
        return {"error": f"no Monte Carlo sample started (exit code "
                         f"{result['exit_code']})", "seed": seed}
    result.update(seed=seed, out=str(out))
    return result


class Run:
    """One benchmark run: its processes, their checks and its metrics."""

    def __init__(self, workload: str, seed: int, out: Path):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.reference = checks.load_reference()[workload]
        if self.reference["samples"] != self.spec["samples"]:
            raise ValueError("reference.json was recorded at another sample "
                             "count; re-record it")
        self.out = out
        self.started = time.monotonic()
        self.seeds = process_seeds(seed, self.reference["seed"])
        self.attempted = 0
        self.failures = []  # (label, problem)

    def _spawn(self, label, seed, **kw):
        self.attempted += 1
        try:
            budget = self.started + RUN_BUDGET_S - time.monotonic()
            result = spawn(self.workload, seed, self.spec["samples"],
                           self.out / label, timeout=max(budget, 1.0), **kw)
        except subprocess.TimeoutExpired:
            result = {"error": "workload process timed out", "seed": seed}
        result["label"] = label
        if "error" in result:
            self.failures.append((label, result["error"]))
        return result

    def measure(self, seconds: float, min_processes: int) -> list:
        deadline = time.monotonic() + seconds
        results = []
        while len(results) < min_processes or time.monotonic() < deadline:
            results.append(self._spawn(f"p{len(results)}", next(self.seeds)))
        return results

    def rerun_traced(self, results: list) -> list:
        return [self._spawn(f"t{r['label'][1:]}", r["seed"], traced=True)
                for r in results]

    def check(self, results: list) -> dict:
        """Check every process's outputs; return the check metrics."""
        identical = 0
        passed = []
        oracle_reports = []
        for r in results:
            if "error" in r:
                continue
            out = Path(r["out"])
            is_ref = r["label"] == "p0"
            problems = checks.check_process(
                self.workload, out, r["exit_code"],
                self.reference if is_ref else None)
            self.failures += [(r["label"], p) for p in problems]
            if problems:
                continue
            if is_ref:
                identical += sum(r["reports"].get(name) == digest for
                                 name, digest in
                                 self.reference["sha256"].items())
            if self.workload == "regularity-path":
                passed.append(checks.regularity_passed(out))
            if self.workload == "linear-oracle":
                oracle_reports.append(json.loads(
                    (out / "linear_oracle.json").read_text()))
        metrics = {"check.reference_identical_files": identical,
                   "check.regularity_passed_frac":
                       statistics.fmean(passed) if passed else 0.0,
                   "check.oracle_max_abs_z": 0.0}
        if oracle_reports:
            problems, worst_z = checks.check_oracle(
                oracle_reports, self.reference["variance_bound"])
            self.failures += [("pooled", p) for p in problems]
            if problems:  # a pooled check fails every process it pooled
                self.failures += [(r["label"], "pooled oracle check")
                                  for r in results]
            metrics["check.oracle_max_abs_z"] = worst_z
        return metrics

    def check_identical(self, plain: list, traced: list) -> None:
        for a, b in zip(plain, traced):
            if "error" not in a and "error" not in b and \
                    a["reports"] != b["reports"]:
                self.failures.append(
                    (b["label"], "traced reports differ from untraced"))

    @property
    def failed(self) -> int:
        return len({label for label, _ in self.failures
                    if label != "pooled"})


def _seconds(result: dict, key: str, host_speed: bool) -> float:
    """A process's time ``key``, converted to seconds of a host that runs
    the hostspeed.py kernel at UNIT_S a unit; as measured if ``host_speed``
    is False."""
    return result[key] * (result["host_speed"] if host_speed else 1.0)


def samples_per_s(results: list, host_speed: bool = True) -> float:
    """Median over processes of samples per second of study time."""
    return statistics.median(
        r["samples"] / _seconds(r, "measure_s", host_speed)
        for r in results if "error" not in r)


def end_to_end(results: list, host_speed: bool = True) -> dict:
    ok = [r for r in results if "error" not in r]
    return {"samples_per_s": samples_per_s(results, host_speed),
            "setup_s": statistics.median(_seconds(r, "setup_s", host_speed)
                                         for r in ok),
            "peak_rss_mib": max(r["peak_rss_mib"] for r in ok)}


def per_layer(plain: list, traced: list) -> tuple:
    """Per-layer metrics of the traced pass, and its merged span table."""
    stats, counts = {}, {}
    wall = 0.0
    samples = runs = 0
    for r in traced:
        if "error" in r:
            continue
        for name, row in r["trace"]["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, value in r["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + value
        wall += r["trace"]["wall_s"]
        samples += r["samples"]
        runs += 1
    metrics = tracing.layer_metrics(stats, counts, samples, runs, wall)
    metrics["trace.overhead_frac"] = (
        1.0 - samples_per_s(traced) / samples_per_s(plain))
    return metrics, stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracspde" / "__init__.py").is_file():
        print(f"error: no fracspde sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = OUT_ROOT / tag
    shutil.rmtree(out, ignore_errors=True)
    run = Run(args.workload, args.seed, out)
    # A traced run spends half its time untraced and reruns those
    # processes traced, so it takes about as long as an untraced run.
    plain = (run.measure(args.seconds / 2, 1) if args.trace
             else run.measure(args.seconds, MIN_PROCESSES))
    traced = run.rerun_traced(plain) if args.trace else []
    if all("error" in r for r in plain) or \
            traced and all("error" in r for r in traced):
        for label, problem in run.failures:
            print(f"error: {label}: {problem}", file=sys.stderr)
        return 1
    check_metrics = run.check(plain)
    if args.trace:
        run.check_identical(plain, traced)
        metrics, span_table = per_layer(plain, traced)
        metrics.update(check_metrics)
        units = {**tracing.LAYER_METRICS, **tracing.TRACE_METRICS,
                 **CHECK_METRICS}
    else:
        span_table = {}
        metrics = end_to_end(plain)
        units = END_TO_END
    failed_frac = run.failed / run.attempted

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "samples_per_process": WORKLOADS[args.workload]["samples"],
        "workers": 1,
        "environment": next((r["environment"] for r in plain
                             if "environment" in r), None),
        "metrics": metrics, "failed_frac": failed_frac,
        "failures": run.failures,
        "processes": [{k: v for k, v in r.items() if k not in
                       ("environment", "trace")} for r in plain + traced],
        "spans": span_table,
    }
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(out, ignore_errors=True)

    for label, problem in run.failures:
        print(f"FAILED {label}: {problem}")
    for name, value in {**metrics, **check_metrics}.items():
        print(f"{name} = {value:.6g} {units.get(name) or CHECK_METRICS[name]}")
    print(f"failed_frac = {failed_frac:.6g} frac "
          f"({run.failed} of {run.attempted} processes)")
    unscaled = end_to_end(plain, host_speed=False)
    print(f"at the measured host speed: samples_per_s = "
          f"{unscaled['samples_per_s']:.6g} 1/s, setup_s = "
          f"{unscaled['setup_s']:.6g} s")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
