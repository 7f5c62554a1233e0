"""Tests of the benchmark itself: tracing arithmetic, metric names, checks,
and a smoke run of every workload at a tiny sample count.

    python3 -m pytest perfbench/tests -q
"""

import json
import re

import pytest

import checks
import hostspeed
import run
import tracing
from workload import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock)
    tracer.enter("outer")          # outer: 0 .. 10
    clock.now = 1.0
    tracer.enter("child")          # child: 1 .. 4, with grandchild 2 .. 3
    clock.now = 2.0
    tracer.enter("grandchild")
    clock.now = 3.0
    tracer.exit()
    clock.now = 4.0
    tracer.exit()
    clock.now = 6.0
    tracer.enter("child")          # child again: 6 .. 8
    clock.now = 8.0
    tracer.exit()
    clock.now = 10.0
    tracer.exit()
    assert tracer.stats["outer"] == [1, 10.0, 5.0]
    assert tracer.stats["child"] == [2, 5.0, 4.0]
    assert tracer.stats["grandchild"] == [1, 1.0, 1.0]
    total_self = sum(row[2] for row in tracer.stats.values())
    assert total_self == tracer.stats["outer"][1]


def test_layer_metrics_account_for_wall_time():
    stats = {"cli.main": [1, 9.0, 1.0],
             "kernels.euler_endpoint": [4, 6.0, 6.0],
             "fbm.circulant_eigenvalues": [2, 0.0, 0.0],
             "fbm.fgn_covariance": [2, 2.0, 2.0]}  # wrapped but not listed
    counts = {"kernels.euler_endpoint.steps": 400,
              "kernels.euler_endpoint.flop": 3e9}
    metrics = tracing.layer_metrics(stats, counts, samples=2, runs=2,
                                    wall_s=10.0)
    listed = (metrics["cli.main.self_ms"]
              + metrics["kernels.euler_endpoint.ms"]) * 2 / 1e3
    assert metrics["trace.other_self_frac"] == pytest.approx(0.2)
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.1)
    assert listed / 10.0 + 0.2 + 0.1 == pytest.approx(1.0)
    assert metrics["kernels.euler_endpoint.steps"] == 200  # per sample
    assert metrics["kernels.euler_endpoint.gflop_computed"] == 1.5
    assert metrics["kernels.euler_endpoint.gflops"] == pytest.approx(0.5)
    assert metrics["fbm.circulant_eigenvalues.calls"] == 1  # per run
    assert metrics["solver.solve_path.self_ms"] == 0.0


def test_euler_flop_model():
    from fracspde import kernels

    assert (tracing.F_ZERO, tracing.F_SCALED, tracing.F_SIN) == \
        (kernels.F_ZERO, kernels.F_SCALED, kernels.F_SIN)
    assert tracing.euler_flops(kernels.F_SIN, 64, 4096) == 4 * 64**2 * 4096
    assert tracing.euler_flops(kernels.F_ZERO, 16, 1024) == 2 * 16 * 1024
    assert tracing.euler_flops(kernels.F_SCALED, 8, 10) == 5 * 8 * 10


def test_instrument_wraps_from_imports_and_restores():
    import numpy as np

    import fracspde
    from fracspde import fbm, rng

    original = rng.derive_seed
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer, fracspde)
    try:
        assert fbm.derive_seed is rng.derive_seed is not original
        sample = fbm.generate_cylindrical_fbm(
            3, fbm.IncrementGrid(m_steps=8, tau=0.125),
            fbm.HurstParameter(0.75), 5)
    finally:
        restore()
    assert fbm.derive_seed is rng.derive_seed is original
    assert tracer.stats["rng.derive_seed"][0] == 3
    assert tracer.stats["fbm.generate_scalar_fbm"][0] == 3
    untraced = fbm.generate_cylindrical_fbm(
        3, fbm.IncrementGrid(m_steps=8, tau=0.125), fbm.HurstParameter(0.75),
        5)
    assert np.array_equal(sample.values, untraced.values)


def test_host_speed_scales_throughput():
    reference = hostspeed.Reference()
    reference.after_sample(0.0)
    assert reference.units == 1 and reference.seconds > 0
    reference.units, reference.seconds = 10, 20 * hostspeed.UNIT_S
    assert reference.speed() == pytest.approx(0.5)
    # 6 samples in 3 s on a host at half speed: 4 samples per host second
    results = [{"samples": 6, "measure_s": 3.0, "host_speed": 0.5},
               {"error": "ignored"}]
    assert run.samples_per_s(results) == pytest.approx(4.0)
    assert run.samples_per_s(results, host_speed=False) == pytest.approx(2.0)


def test_metric_names_are_valid_and_match_the_benchmark_file():
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert e2e == run.END_TO_END
    emitted = {**tracing.LAYER_METRICS, **tracing.TRACE_METRICS,
               **run.CHECK_METRICS}
    assert layer == emitted
    for name, unit in {**e2e, **layer}.items():
        assert NAME.fullmatch(name), name
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def _converge_report(out, values):
    rows = ["resolution,rms_error,std_error"]
    for i in range(5):
        rows.append(f"{2**i},{values[2 * i]!r},{values[2 * i + 1]!r}")
    out.mkdir(parents=True, exist_ok=True)
    (out / "spatial_x_bench.csv").write_text("\n".join(rows) + "\n")
    (out / "spatial_x_bench.json").write_text(json.dumps(
        {"fitted_slope": values[10],
         "slope_confidence_halfwidth": values[11]}))


def test_perturbed_report_fails_the_output_check(tmp_path):
    reference = checks.load_reference()["spatial-sin"]
    values = list(reference["values"])
    _converge_report(tmp_path / "same", values)
    assert checks.check_process("spatial-sin", tmp_path / "same", 0,
                                reference) == []
    values[3] *= 1 + 1e-6
    _converge_report(tmp_path / "perturbed", values)
    problems = checks.check_process("spatial-sin", tmp_path / "perturbed",
                                    0, reference)
    assert problems and "recorded values" in problems[0]
    values[3] = float("nan")
    _converge_report(tmp_path / "nan", values)
    assert checks.check_process("spatial-sin", tmp_path / "nan", 0, None)
    assert checks.check_process("spatial-sin", tmp_path / "same", 1, None)


def test_oracle_check_rejects_a_biased_mean():
    bound = {"p": [1.0]}

    def report(sq):
        return {"p": {"sq_errors": [[repr(x)] for x in sq],
                      "oracle_rms": ["2.0"]}}

    fair = [report([3.0, 5.0, 4.0, 4.0])]
    assert checks.check_oracle(fair, bound)[0] == []
    # exact standard error sqrt(1/4) = 0.5: a mean off by 2 is 4 SE out
    biased = [report([6.0, 6.0]), report([6.0, 6.0])]
    problems, worst_z = checks.check_oracle(biased, bound)
    assert problems and worst_z == pytest.approx(4.0)
    # mean 8 is 8.9 exact SEs out, but the sample SE (4.9) takes over
    spread = [report([0.0, 20.0]), report([0.0, 20.0, 0.0])]
    assert checks.check_oracle(spread, bound)[0] == []


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_smoke_run(workload, tmp_path):
    plain = run.spawn(workload, 11, 2, tmp_path / "plain")
    assert "error" not in plain, plain.get("error")
    assert checks.check_process(workload, tmp_path / "plain",
                                plain["exit_code"], None) == []
    assert plain["samples"] == 2 * WORKLOADS[workload]["presets"]
    assert 0 < plain["setup_s"] and 0 < plain["measure_s"]
    assert plain["peak_rss_mib"] > 0
    assert plain["reference_units"] >= plain["samples"]  # one per sample
    assert plain["host_speed"] > 0
    if workload == "spatial-sin":
        traced = run.spawn(workload, 11, 2, tmp_path / "traced", traced=True)
        assert traced["reports"] == plain["reports"]
        stats = traced["trace"]["stats"]
        assert stats["rng.derive_seed"][0] >= 2 * 512
        assert "fbm.aggregate_cylindrical" not in stats
        assert stats["cli.main"][0] == 1
        assert hostspeed.SPAN not in stats
