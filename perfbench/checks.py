"""Output checks for the benchmark's workloads.

Every process's outputs must be finite. The reference process of each run
(the workload at its reference seed) must reproduce the values recorded in
reference.json from the commit that introduced the benchmark, within
``RTOL``; whether its report files are also byte-identical is counted, not
required, because batching the sweep may change the last bits. The
linear-oracle run must agree with the exact mild-error oracle within 3.5
standard errors, pooled over every sample of the run.

All functions here read report files with the standard library only and
return a list of problems; an empty list means the check passed.
"""

import json
import math
import statistics
from pathlib import Path

# Relative tolerance against the recorded values: far above the 1e-15
# relative drift of reordered floating-point sums, far below any change of
# the mathematics.
RTOL = 1e-9
ORACLE_SE_MULTIPLE = 3.5
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _report(out: Path, pattern: str) -> Path:
    paths = sorted(out.glob(pattern))
    if len(paths) != 1:
        raise FileNotFoundError(f"expected one {pattern} in {out}, "
                                f"found {len(paths)}")
    return paths[0]


def extract_values(workload: str, out: Path) -> list:
    """The numbers a workload process reports, in a fixed order."""
    if workload == "spatial-sin":
        rows = _report(out, "*_bench.csv").read_text().splitlines()[1:]
        csv_values = [float(x) for row in rows for x in row.split(",")[1:]]
        payload = json.loads(_report(out, "*_bench.json").read_text())
        return csv_values + [payload["fitted_slope"],
                             payload["slope_confidence_halfwidth"]]
    if workload == "regularity-path":
        payload = json.loads(_report(out, "verify_*_bench.json").read_text())
        holder = payload["suites"]["regularity"]["holder"]
        return [holder[p]["fitted_exponent"] for p in sorted(holder)]
    payload = json.loads(_report(out, "linear_oracle.json").read_text())
    return [float(x) for preset in sorted(payload)
            for row in payload[preset]["sq_errors"]
            + [payload[preset]["oracle_rms"]] for x in row]


def regularity_passed(out: Path) -> bool:
    """The verify suite's own verdict, as written in its report."""
    payload = json.loads(_report(out, "verify_*_bench.json").read_text())
    return bool(payload["passed"])


def check_finite(values: list) -> list:
    bad = [v for v in values if not math.isfinite(v)]
    return [f"{len(bad)} non-finite output values"] if bad else []


def check_against_reference(values: list, recorded: list,
                            rtol: float = RTOL) -> list:
    if len(values) != len(recorded):
        return [f"{len(values)} output values, {len(recorded)} recorded"]
    worst = max((abs(v - r) / abs(r) if r else abs(v)
                 for v, r in zip(values, recorded)), default=0.0)
    if worst > rtol:
        return [f"outputs differ from the recorded values by {worst:.3g} "
                f"relative (tolerance {rtol:g})"]
    return []


def check_process(workload: str, out: Path, exit_code: int,
                  reference: dict | None) -> list:
    """Exit status, finiteness and, for the reference process, the values."""
    # verify exits 1 when its statistical verdict fails; that verdict is
    # counted separately (see README), anything else is a failure.
    allowed = (0, 1) if workload == "regularity-path" else (0,)
    if exit_code not in allowed:
        return [f"exit code {exit_code}"]
    try:
        values = extract_values(workload, out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable report: {exc}"]
    problems = check_finite(values)
    if reference is not None:
        problems += check_against_reference(values, reference["values"])
        if workload == "regularity-path" and \
                regularity_passed(out) != reference["passed"]:
            problems.append("suite verdict differs from the recorded one")
    return problems


def oracle_z_scores(reports: list, variance_bound: dict) -> dict:
    """Pooled z-score of the mean squared error against the oracle.

    ``reports`` are parsed linear_oracle.json payloads of one run. The
    standard error is the larger of the sample one and the exact bound
    sqrt(sum_n 2 e_n^2 / count), e_n being mode n's share of the oracle's
    mean square (recorded per rung in ``variance_bound``). The sample
    standard error alone collapses whenever a small sample misses the
    heavy chi-square tail of the trace-class preset.
    """
    z = {}
    for preset, bounds in variance_bound.items():
        rows = [[float(x) for x in row] for rep in reports
                for row in rep[preset]["sq_errors"]]
        oracle = [float(x) for x in reports[0][preset]["oracle_rms"]]
        count = len(rows)
        for i, bound in enumerate(bounds):
            col = [row[i] for row in rows]
            se = max(statistics.stdev(col) / math.sqrt(count),
                     math.sqrt(bound / count))
            z[f"{preset}[{i}]"] = (statistics.fmean(col) - oracle[i] ** 2) / se
    return z


def check_oracle(reports: list, variance_bound: dict) -> tuple:
    """(problems, largest |z|) of the pooled oracle comparison."""
    oracles = {json.dumps({p: rep[p]["oracle_rms"] for p in variance_bound})
               for rep in reports}
    if len(oracles) != 1:
        return ["processes disagree on the exact oracle"], math.inf
    z = oracle_z_scores(reports, variance_bound)
    worst = max(z, key=lambda k: abs(z[k]))
    if abs(z[worst]) > ORACLE_SE_MULTIPLE:
        return [f"mean squared error at {worst} is {z[worst]:.2f} standard "
                f"errors from the exact oracle"], abs(z[worst])
    return [], abs(z[worst])
