"""Host speed, measured by a fixed reference kernel timed between samples.

On the shared 2-vCPU virtual machine this benchmark was built on, the
speed at which one process runs changes by up to 1.7x within a second and
stays slow or fast for tens of seconds, whatever the process does (a pure
Python loop shows it as much as the workloads). A run's wall-clock
throughput therefore spreads by about 0.2 (interquartile range over
median) from run to run. CPU time does not help: the process is not
descheduled, it runs slower.

So each workload process runs this module's kernel right after every
Monte Carlo sample, for ``SHARE`` of that sample's time. The kernel's mean
unit time over the process, against ``UNIT_S``, gives the host's speed
during the process, and the benchmark converts the process's set-up and
study times to seconds of a host running the kernel at ``UNIT_S``. The
kernel is fixed benchmark code: a change to fracspde changes the samples'
time, never the kernel's.
"""

import time

import numpy as np

# One unit's time on the build host (median over 145 workload processes:
# 1.94 ms, range 1.41 to 2.37 ms). It only scales the reported times; any
# fixed value would do.
UNIT_S = 1.94e-3
# Kernel time after each sample, as a share of that sample's time.
SHARE = 0.15
# Span name of the kernel in a traced process; it is not a fracspde layer.
SPAN = "perfbench.reference"

_VECTOR = np.linspace(0.0, 1.0, 2048)
_MATRIX = np.cos(np.outer(np.arange(256.0), np.arange(256.0)) / 256.0)


def unit() -> float:
    """One unit of reference work: interpreter-bound, small numpy calls
    and a BLAS matrix-vector product, as the workloads mix them."""
    x = 0
    for i in range(12000):
        x += i * i
    a = _VECTOR
    for _ in range(30):
        a = np.sin(a) + 0.5
    v = a[:256]
    for _ in range(20):
        v = _MATRIX @ v / 256.0
    return x + float(v[0])


class Reference:
    """Runs and times the kernel; ``tracer`` gives it its own span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.units = 0
        self.seconds = 0.0

    def after_sample(self, sample_s: float) -> None:
        """Run units for ``SHARE`` of the sample's time, at least one."""
        if self.tracer is not None:
            self.tracer.enter(SPAN)
        start = time.perf_counter()
        while True:
            unit()
            self.units += 1
            elapsed = time.perf_counter() - start
            if elapsed >= SHARE * sample_s:
                break
        if self.tracer is not None:
            self.tracer.exit()
        self.seconds += elapsed

    def speed(self) -> float:
        """Host speed relative to the build host: 1.0 there, below when
        slower."""
        return self.units * UNIT_S / self.seconds
