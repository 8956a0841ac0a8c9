"""Elapsed time scaled to a reference CPU speed.

On a shared host the speed of a core drifts by tens of percent within
seconds (neighbours on the same physical core), which would swamp the
changes this benchmark exists to show.  While a SpeedClock is active, a
SIGALRM every PERIOD_S runs a fixed pure-Python kernel in the main thread
and records how long it took.  The time of an interval is then scaled by
REFERENCE_KERNEL_S over the median kernel time of the samples inside it (or,
for an interval too short to hold one, of the samples on either side), and
the time spent in the kernel itself is left out.  No thread or process is
started.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.05
# about the median kernel time, taken between calls, on the 2-vCPU x86-64 VM
# (Python 3.11.7) the baseline was measured on; only ratios of figures matter
REFERENCE_KERNEL_S = 0.0018


def kernel_ns() -> int:
    """A fixed mix of what the program does most: small tuples and lists,
    dict stores, calls and modular integer arithmetic."""
    start = time.perf_counter_ns()
    table = {}
    acc = 0
    for i in range(1500):
        t = (i, i * 7 % 13, [i, i + 1])
        table[i % 64] = t
        acc = (acc + len(t[2]) + t[1] * 31) % 1_000_003
        acc += sum(x % 5 for x in t[2])
    return time.perf_counter_ns() - start


Mark = tuple[int, int]  # (perf_counter_ns, kernel ns spent so far)


class SpeedClock:
    def __init__(self):
        self._times: list[int] = []
        self._kernels: list[int] = []
        self._stolen = 0
        self._previous = None

    def _tick(self, _signum, _frame) -> None:
        start = time.perf_counter_ns()
        k = kernel_ns()
        self._times.append(start)
        self._kernels.append(k)
        self._stolen += time.perf_counter_ns() - start

    def __enter__(self) -> SpeedClock:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> Mark:
        return time.perf_counter_ns(), self._stolen

    def sample(self) -> None:
        """Take a sample now (e.g. after the last interval of interest)."""
        self._tick(None, None)

    def raw_s(self, start: Mark, end: Mark) -> float:
        return (end[0] - start[0] - (end[1] - start[1])) / 1e9

    def scaled_s(self, start: Mark, end: Mark) -> float:
        """Kernel-free time of [start, end] at the reference speed."""
        lo = bisect.bisect_left(self._times, start[0])
        hi = bisect.bisect_right(self._times, end[0])
        inside = self._kernels[lo:hi] or self._kernels[max(lo - 1, 0) : lo + 1]
        # the median, because a sample the host preempted can read ten times slower
        return self.raw_s(start, end) * REFERENCE_KERNEL_S * 1e9 / statistics.median(inside)
