"""Core-speed probe: a fixed micro-kernel timed while a pass runs.

The benchmark's host shares its cores with other guests, whose load slows
a pass by up to twofold for seconds to minutes at a time. The guest sees
no steal time for it: the core just runs slower. The probe measures that
slowdown in the pass's own process. A SIGALRM timer runs ``kernel`` every
``INTERVAL_S`` of wall time, between two bytecodes of the program, and
records how long it took. Their mean over ``REFERENCE_KERNEL_S`` is the
pass's mean slowdown, and ``wall_s * REFERENCE_KERNEL_S / mean`` is the
pass's wall time at the reference core speed. A long numpy call delays the
next sample until it returns, so bulk-array passes get fewer samples.

The kernel is interpreter bytecode on a few floats: it neither evicts the
program's data nor depends on it. It allocates nothing that outlives it,
and the sampler keeps a running sum, not a list, so the probe cannot pin
the top of the C heap and change the program's peak RSS. Each sample runs
the kernel twice and times the second run, once the program's own code has
been flushed from the caches it shares. The probe costs about 0.5% of a
pass; its time stays in the raw wall time.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.05
# About the kernel time on an idle core of the 2-CPU x86-64 VM (Xeon, Python
# 3.11) the benchmark was tuned on. Only ratios to it matter.
REFERENCE_KERNEL_S = 110e-6


def kernel() -> float:
    """One timed run of the fixed micro-kernel, in seconds."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(1200):
        s += math.sqrt(i) * 0.5
    return time.perf_counter() - t0


def burst(count: int = 20) -> float:
    """Mean kernel time over ``count`` back-to-back runs, after a short warm-up."""
    for _ in range(3):
        kernel()
    return sum(kernel() for _ in range(count)) / count


class Sampler:
    """Runs the kernel on a wall-clock timer between ``start`` and ``stop``."""

    def __init__(self):
        self.count = 0
        self.total_s = 0.0

    def _sample(self, signum, frame):
        kernel()
        self.total_s += kernel()
        self.count += 1

    def start(self) -> None:
        burst(1)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> float:
        """Stops the timer; the mean kernel time, or a burst's when no sample was taken."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.total_s / self.count if self.count else burst()
