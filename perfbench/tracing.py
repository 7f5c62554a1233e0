"""Span tracing of the fracspde layers, installed from outside the library.

``instrument`` replaces every public function of the fracspde modules with
a wrapper that opens a span on entry and closes it on exit, in every module
namespace that binds the function (``from .rng import derive_seed`` in
fbm.py makes ``fbm.derive_seed`` a second binding of ``rng.derive_seed``).
Nothing under ``src/`` changes; ``restore`` puts the original functions
back.

A span's self time is its duration minus the time its child spans cover.
Spans are aggregated per name as they close (calls, inclusive seconds,
self seconds), so tracing a long run keeps constant memory. Counts of
work (kernel steps, computed flops and bytes) are derived from argument
and result shapes after the span closes.
"""

import importlib
import inspect
import time

# Modules whose public functions are wrapped; the package itself is listed
# so its re-exports are rebound too.
MODULES = ("rng", "fbm", "spectral", "solver", "kernels", "verify",
           "experiments", "parallel", "cli")

# kernels.py nonlinearity codes, repeated here so the flop model can be
# tested without importing the library.
F_ZERO, F_SCALED, F_SIN = 0, 1, 2


def euler_flops(f_kind: int, n_modes: int, m_steps: int) -> int:
    """Floating-point operations of one implicit Euler sweep.

    Per step: F = 0 costs an add and a multiply per mode (2N); F = u -> s*u
    adds three more (5N); F = sin costs the two dense N x N sine-matrix
    products (4N^2), lower-order terms dropped.
    """
    per_step = {F_ZERO: 2 * n_modes, F_SCALED: 5 * n_modes,
                F_SIN: 4 * n_modes * n_modes}[f_kind]
    return per_step * m_steps


class Tracer:
    """Aggregates nested spans by name; ``clock`` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = {}  # name -> [calls, total_s, self_s]
        self.counts = {}  # name -> summed work count
        self._stack = []  # [name, start, child_s] per open span

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        row = self.stats.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += duration
        row[2] += duration - child
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, name: str, fn, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if counter is not None:
                counter(tracer, args, result)
            return result

        return traced


def _count_euler(prefix):
    def counter(tracer, args, result):
        dw_scaled, f_kind = args[3], args[4]
        m_steps, n_modes = dw_scaled.shape
        tracer.count(prefix + ".steps", m_steps)
        tracer.count(prefix + ".flop", euler_flops(f_kind, n_modes, m_steps))
        tracer.count(prefix + ".bytes", dw_scaled.nbytes + result.nbytes)
    return counter


def _count_aggregate(tracer, args, result):
    tracer.count("fbm.aggregate_cylindrical.bytes",
                 args[0].values.nbytes + result.values.nbytes)


def _count_report(tracer, args, result):
    tracer.count("experiments.write_report.bytes",
                 sum(path.stat().st_size for path in result))


COUNTERS = {
    "kernels.euler_endpoint": _count_euler("kernels.euler_endpoint"),
    "kernels.euler_trajectory": _count_euler("kernels.euler_trajectory"),
    "fbm.aggregate_cylindrical": _count_aggregate,
    "experiments.write_report": _count_report,
}


def instrument(tracer: Tracer, package):
    """Wrap the public functions of ``package``'s modules; return a restore.

    A function is named after its home module and its first public name
    there in sorted order (kernels' ``py_*`` aliases sort after the names
    the solver calls, so the sweep is traced as ``kernels.euler_endpoint``).
    """
    modules = _modules(package)
    wrappers = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr in sorted(vars(module)):
            fn = vars(module)[attr]
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or not fn.__module__.startswith(package.__name__ + ".")
                    or id(fn) in wrappers):
                continue
            if fn.__module__ != module.__name__ and \
                    fn.__module__.rsplit(".", 1)[-1] in MODULES:
                continue  # a from-import; wrapped under its home module
            name = f"{short}.{attr}"
            wrappers[id(fn)] = (fn, tracer.wrap(name, fn, COUNTERS.get(name)))
    return _rebind(wrappers, modules + [package])


def _modules(package) -> list:
    return [importlib.import_module(f"{package.__name__}.{name}")
            for name in MODULES]


def _rebind(wrappers, namespaces):
    undo = []
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(ns, attr, hit[1])
                undo.append((ns, attr, value))

    def restore():
        for ns, attr, value in undo:
            setattr(ns, attr, value)
    return restore


def sample_probe(package, on_first, on_sample):
    """Time-stamp the first Monte Carlo sample and time every sample.

    Rebinds ``parallel.parallel_map`` wherever it is bound, like
    ``instrument``: ``on_first()`` runs when it is first entered, and
    ``on_sample(seconds)`` after each call of the function it maps (one
    sample). The study must map inline (``workers=1``). Used untraced too;
    returns a restore callable.
    """
    home = importlib.import_module(f"{package.__name__}.parallel").parallel_map
    fired = []

    def probe(fn, args_list, *args, **kwargs):
        if not fired:
            fired.append(True)
            on_first()

        def timed(sample_args):
            start = time.perf_counter()
            result = fn(sample_args)
            on_sample(time.perf_counter() - start)
            return result

        return home(timed, args_list, *args, **kwargs)

    return _rebind({id(home): (home, probe)}, _modules(package) + [package])


# Per-layer metrics reported from the traced run, name -> unit. A name is
# <span>.<quantity>: calls, self_ms or ms (inclusive) of the span, or a
# count its counter summed (steps, bytes_computed, gflop_computed, bytes);
# gflops is computed flops over the span's time. The unit says whether the
# value is per Monte Carlo sample or per workload process (run).
LAYER_METRICS = {
    "rng.derive_seed.calls": "count/sample",
    "rng.derive_seed.self_ms": "ms/sample",
    "rng.rng_from_seed.self_ms": "ms/sample",
    "fbm.generate_scalar_fbm.calls": "count/sample",
    "fbm.generate_scalar_fbm.self_ms": "ms/sample",
    "fbm.generate_cylindrical_fbm.self_ms": "ms/sample",
    "fbm.circulant_eigenvalues.calls": "count/run",
    "fbm.aggregate_cylindrical.calls": "count/sample",
    "fbm.aggregate_cylindrical.self_ms": "ms/sample",
    "fbm.aggregate_cylindrical.bytes_computed": "B/sample",
    "spectral.sine_matrix.calls": "count/sample",
    "spectral.sine_matrix.self_ms": "ms/sample",
    "solver.solve_endpoint.self_ms": "ms/sample",
    "kernels.euler_endpoint.ms": "ms/sample",
    "kernels.euler_endpoint.steps": "count/sample",
    "kernels.euler_endpoint.gflop_computed": "GFLOP/sample",
    "kernels.euler_endpoint.gflops": "GFLOP/s",
    "kernels.euler_trajectory.ms": "ms/sample",
    "kernels.euler_trajectory.bytes_computed": "B/sample",
    "solver.solve_path.self_ms": "ms/sample",
    "kernels.convolution_endpoint.ms": "ms/sample",
    "solver.linear_mild_reference.self_ms": "ms/sample",
    "verify.expected_mild_rms_errors.ms": "ms/run",
    "verify.estimate_time_regularity.self_ms": "ms/sample",
    "experiments.reduce.self_ms": "ms/sample",
    "experiments.write_report.ms": "ms/sample",
    "experiments.write_report.bytes": "B/run",
    "parallel.parallel_map.self_ms": "ms/sample",
    "cli.main.self_ms": "ms/sample",
}

# experiments.reduce is no function: it is the self time of the study
# runners after their samples return, plus the statistics they call.
REDUCE_SPANS = ("experiments.run_spatial_study", "experiments.rms_error",
                "experiments.fit_slope")

TRACE_METRICS = {
    "trace.overhead_frac": "frac",
    "trace.unattributed_frac": "frac",
    "trace.other_self_frac": "frac",
}


def layer_metrics(stats: dict, counts: dict, samples: int, runs: int,
                  wall_s: float) -> dict:
    """Per-layer metrics from merged span stats of ``runs`` processes.

    ``wall_s`` is the summed wall time the spans could cover. The self
    time of every span a listed metric times, plus ``trace.other_self_frac``
    (self time of the other wrapped functions) and
    ``trace.unattributed_frac`` (time in no span), makes up ``wall_s``.
    """
    out = {}
    timed = set()
    for name, unit in LAYER_METRICS.items():
        span, quantity = name.rsplit(".", 1)
        spans = REDUCE_SPANS if span == "experiments.reduce" else (span,)
        calls, total_s, self_s = (sum(stats.get(s, (0, 0.0, 0.0))[i]
                                      for s in spans) for i in range(3))
        flop = counts.get(span + ".flop", 0)
        if quantity in ("ms", "self_ms"):
            timed.update(spans)
        if quantity == "gflops":
            out[name] = 1e-9 * flop / total_s if total_s > 0 else 0.0
            continue
        value = {"calls": calls, "ms": 1e3 * total_s, "self_ms": 1e3 * self_s,
                 "gflop_computed": 1e-9 * flop,
                 "bytes_computed": counts.get(span + ".bytes", 0),
                 }.get(quantity, counts.get(f"{span}.{quantity}", 0))
        out[name] = value / (runs if unit.endswith("/run") else samples)
    total_self = sum(row[2] for row in stats.values())
    timed_self = sum(stats.get(s, (0, 0.0, 0.0))[2] for s in timed)
    out["trace.other_self_frac"] = (total_self - timed_self) / wall_s
    out["trace.unattributed_frac"] = 1.0 - total_self / wall_s
    return out
