"""Record reference.json: each workload's outputs at its reference seed.

    python3 perfbench/record_reference.py

Run once on the commit whose outputs define "correct"; every benchmark
run's reference process must reproduce these values (checks.RTOL). For
linear-oracle it also records, per preset and rung, the bound
sum_n 2 e_n^2 on the variance of one sample's squared error, where e_n is
mode n's share of the exact oracle's mean square (independent modes, each
a shifted Gaussian square).
"""

import json
import sys

import checks
import run
from workload import (ORACLE_FINE_STEPS, ORACLE_LADDER, ORACLE_MODES,
                      ORACLE_PRESETS, WORKLOADS)

REFERENCE_SEED = 0


def variance_bounds() -> dict:
    sys.path.insert(0, str(run.ROOT / "src"))
    from fracspde import experiments, solver, verify

    bounds = {}
    for preset in ORACLE_PRESETS:
        problem = experiments.she_problem(preset, n_modes=ORACLE_MODES,
                                          m_steps=ORACLE_FINE_STEPS,
                                          base_seed=REFERENCE_SEED,
                                          with_nonlinearity=False)
        prefix = [[0.0] * len(ORACLE_LADDER)]
        for n in range(1, ORACLE_MODES + 1):
            rms = verify.expected_mild_rms_errors(
                solver.restrict_config(problem, n_modes=n),
                list(ORACLE_LADDER))
            prefix.append([float(x) ** 2 for x in rms])
        bounds[preset] = [
            sum(2.0 * (prefix[n][i] - prefix[n - 1][i]) ** 2
                for n in range(1, ORACLE_MODES + 1))
            for i in range(len(ORACLE_LADDER))]
    return bounds


def main() -> int:
    reference = {}
    for name, spec in WORKLOADS.items():
        out = run.OUT_ROOT / "reference" / name
        result = run.spawn(name, REFERENCE_SEED, spec["samples"], out)
        if "error" in result:
            print(f"{name}: {result['error']}", file=sys.stderr)
            return 1
        entry = {"seed": REFERENCE_SEED, "samples": spec["samples"],
                 "values": checks.extract_values(name, out),
                 "sha256": result["reports"]}
        if name == "regularity-path":
            entry["passed"] = checks.regularity_passed(out)
        if name == "linear-oracle":
            entry["variance_bound"] = variance_bounds()
        reference[name] = entry
        print(f"{name}: {len(entry['values'])} values recorded")
    checks.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
