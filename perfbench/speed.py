"""Machine-speed sampling, to report times at a fixed reference speed.

The benchmark runs on a shared host whose speed drifts: one job's wall time
moved by up to 75% within minutes, in CPU time as much as in wall time, so
no estimator inside a 20-second run removes it. While a measured block
runs, a SIGALRM timer times a fixed reference kernel every INTERVAL_S:
``np.sort`` of 20k floats plus a short pure-Python loop of float math and
dict stores, about 0.45 ms together. The pass times of the evaluate and
design workloads followed the kernel's median time over the pass with
correlation 0.8-0.9, so scaling by it removes most of the drift:

    scaled = seconds * REF_KERNEL_S / median(kernel times in the block)

which is the block's time on a machine where the kernel takes
REF_KERNEL_S. The kernel shares no code with the package. The samples run
inside the block and add about 0.5% to its time. README.md here has the
measurements behind this choice.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
REF_KERNEL_S = 400e-6
_DATA = np.random.default_rng(0).random(20_000)


def kernel_seconds() -> float:
    t0 = perf_counter()
    np.sort(_DATA)
    total, table = 0.0, {}
    for i in range(400):
        x = (i * 2654435761) % 1000003
        total += math.log(x + 1.0)
        table[x & 1023] = total
    return perf_counter() - t0


class SpeedSampler:
    """Times the reference kernel at the start, every INTERVAL_S, and the end of a block."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(kernel_seconds())

    def __enter__(self) -> SpeedSampler:
        self.samples = [kernel_seconds()]
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(kernel_seconds())

    def scale(self, seconds: float) -> float:
        """``seconds`` measured inside the block, at the reference speed."""
        return seconds * REF_KERNEL_S / statistics.median(self.samples)
