"""Tracks how fast this core runs Python while a sweep pass runs.

The host the benchmark runs on shares its cores with other tenants.  A busy
neighbour on the same physical core can make the same Python code take up to
twice as long, and how busy the neighbour is changes from one half minute to
the next.  A raw time then measures the neighbour as much as the program.

:class:`SpeedProbe` runs a fixed reference kernel, which is independent of
dynloc, every ``SAMPLE_EVERY_S`` seconds on a ``SIGALRM`` timer while a pass
runs.  The handler runs in the main thread, between the program's own Python
bytecodes, so the kernel shares the program's core and its neighbour.  The CPU
time of each kernel call says how slow the core is at that moment.  The
samples come at even steps of wall time, so the core's mean speed over a pass
is the mean of 1 / (kernel time): the pass's kernel times enter as their
harmonic mean.  A pass's time, scaled by ``REFERENCE_S`` over that harmonic
mean, is its time on a core running at the reference speed.

:meth:`SpeedProbe.clock` is wall time minus the time spent in the kernel, so
the samples themselves are not counted as program time.
"""

from __future__ import annotations

import math
import signal
import statistics
from time import perf_counter, thread_time

SAMPLE_EVERY_S = 0.05

# The kernel's CPU time on an idle core of the 2-vCPU Xeon host the bounds
# were set on; it only fixes the scale of the calibrated times.
REFERENCE_S = 0.00035

_STEPS = 600


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y

    def moved(self, dx: float, dy: float) -> "_Point":
        return _Point(self.x + dx, self.y + dy)


def reference_kernel() -> int:
    """A fixed mix of the work a sweep does per grid step: calls, float math, small objects."""
    p = _Point(0.0, 0.0)
    far = []
    last = {}
    for i in range(_STEPS):
        p = p.moved(math.cos(i * 0.01), math.sin(i * 0.01))
        r = math.hypot(p.x, p.y)
        last[i & 15] = r
        if r > 3.0:
            far.append((i, r))
    return len(far)


class SpeedProbe:
    """Samples the core's speed on a timer while the ``with`` block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []  # CPU seconds of each kernel call
        self.paused_s = 0.0  # wall seconds spent in the kernel
        self.paused_cpu_s = 0.0

    def sample(self, *_signal_args) -> None:
        w0, c0 = perf_counter(), thread_time()
        reference_kernel()
        c1, w1 = thread_time(), perf_counter()
        self.samples.append(c1 - c0)
        self.paused_cpu_s += c1 - c0
        self.paused_s += w1 - w0

    def clock(self) -> float:
        """Wall seconds, less those spent sampling."""
        return perf_counter() - self.paused_s

    @property
    def scale(self) -> float:
        """Factor that turns this pass's times into times at the reference speed."""
        return REFERENCE_S / statistics.harmonic_mean(self.samples)

    def __enter__(self) -> "SpeedProbe":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
