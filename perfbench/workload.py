"""One workload process: set up, run the Monte Carlo study once, report.

Run by perfbench/run.py in a fresh interpreter per study, with BLAS and
fracspde pinned to one thread:

    python3 perfbench/workload.py NAME --seed S --samples K --out DIR \
        --t0 T [--trace]

``--t0`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is shared by all processes on Linux), so set-up
time counts interpreter start, imports and building the study. The first
Monte Carlo sample starts when the study first enters
``parallel.parallel_map`` (CLI workloads) or the sample loop (library
workload). After every sample the process runs the host-speed kernel of
hostspeed.py; the study's measured time excludes the kernel's. Results go
to DIR/result.json; reports stay in DIR for the parent to check.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import hostspeed
import tracing

# Workload name -> how one process runs it: ``argv`` for the fracspde CLI,
# or None for the library loop of run_linear_oracle. ``samples`` is the
# per-process sample count per study (per preset for the two-preset ones).
WORKLOADS = {
    "spatial-sin": {"presets": 1, "samples": 24, "argv": [
        "converge", "--axis", "space", "--preset", "she-identity"]},
    "linear-oracle": {"presets": 2, "samples": 4, "argv": None},
    "regularity-path": {"presets": 2, "samples": 6, "argv": [
        "verify", "--suite", "regularity"]},
}

PIN_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "FRACSPDE_WORKERS": "1"}

# linear-oracle shape (acceptance criterion 8)
ORACLE_PRESETS = ("she-trace", "she-identity")
ORACLE_MODES = 16
ORACLE_FINE_STEPS = 2**16
ORACLE_LADDER = (256, 512, 1024)
ORACLE_REPORT = "linear_oracle.json"


def _fmt(x) -> str:
    return format(float(x), ".17g")


def run_linear_oracle(seed: int, samples: int, out: Path, mark_ready,
                      on_sample):
    """Scheme vs mild reference on coupled noise, as criterion 8 runs it.

    Writes every per-sample squared error and the exact oracle per preset;
    calls ``on_sample(seconds)`` after each sample.
    """
    import numpy as np
    from fracspde import experiments, fbm, rng, solver, verify

    problems = [experiments.she_problem(p, n_modes=ORACLE_MODES,
                                        m_steps=ORACLE_FINE_STEPS,
                                        base_seed=seed,
                                        with_nonlinearity=False)
                for p in ORACLE_PRESETS]
    mark_ready()
    report = {}
    for preset, problem in zip(ORACLE_PRESETS, problems):
        rows = []
        for s in range(samples):
            start = time.perf_counter()
            fine = fbm.generate_cylindrical_fbm(
                ORACLE_MODES, problem.grid(), problem.hurst,
                rng.derive_seed(seed, rng.SAMPLE_STREAM, s))
            mild = solver.linear_mild_reference(problem, fine).coeffs
            row = []
            for m in ORACLE_LADDER:
                coarse = fbm.aggregate_cylindrical(fine,
                                                   ORACLE_FINE_STEPS // m)
                end = solver.solve_endpoint(
                    solver.restrict_config(problem, m_steps=m), coarse).coeffs
                row.append(_fmt(np.sum((mild - end) ** 2)))
            rows.append(row)
            on_sample(time.perf_counter() - start)
        oracle = verify.expected_mild_rms_errors(problem, list(ORACLE_LADDER))
        report[preset] = {"sq_errors": rows,
                          "oracle_rms": [_fmt(x) for x in oracle]}
    (out / ORACLE_REPORT).write_text(json.dumps(report, indent=1) + "\n")
    return 0


def _environment() -> dict:
    import numpy as np
    import scipy
    from fracspde import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "backend": kernels.BACKEND,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "pinned_env": {k: os.environ.get(k) for k in PIN_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--samples", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = WORKLOADS[args.workload]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    import fracspde

    tracer = tracing.Tracer() if args.trace else None
    restore = (tracing.instrument(tracer, fracspde) if tracer
               else (lambda: None))
    reference = hostspeed.Reference(tracer)
    ready = []  # time of the first sample

    def mark_ready():
        ready.append(time.monotonic())

    unprobe = tracing.sample_probe(fracspde, mark_ready,
                                   reference.after_sample)
    started = time.perf_counter()
    if spec["argv"] is None:
        code = run_linear_oracle(args.seed, args.samples, out, mark_ready,
                                 reference.after_sample)
    else:
        from fracspde import cli

        code = cli.main(
            spec["argv"] + ["--samples", str(args.samples),
                            "--seed", str(args.seed), "--workers", "1",
                            "--out-dir", str(out), "--tag", "bench"])
    finished = time.monotonic()
    wall = time.perf_counter() - started
    unprobe()
    restore()

    result = {
        "exit_code": code,
        "setup_s": ready[0] - args.t0 if ready else None,
        # the reference kernel's time is not the study's
        "measure_s": (finished - ready[0] - reference.seconds
                      if ready else None),
        "host_speed": reference.speed() if reference.units else None,
        "reference_units": reference.units,
        "samples": args.samples * spec["presets"],
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "reports": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(out.iterdir())
                    if p.is_file() and "manifest" not in p.name
                    and p.name != "result.json"},
        "environment": _environment(),
    }
    if tracer is not None:
        kernel = tracer.stats.pop(hostspeed.SPAN, [0, 0.0, 0.0])
        result["trace"] = {"stats": tracer.stats, "counts": tracer.counts,
                           "wall_s": wall - kernel[1]}
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
