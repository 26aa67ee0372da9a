"""Host speed calibration: a fixed pure-Python kernel timed while queries run.

On a shared host the same code runs at several distinct speeds, up to about
1.6x apart on the 2-vCPU VM where this benchmark was written, switching
every few seconds to minutes; every kind of Python work slows by nearly the
same factor.  The benchmark therefore times a small kernel in the same
process as the work it measures, from a timer signal every INTERVAL_S, also
in the middle of a long query, and reports times scaled to a host on which
the kernel takes REFERENCE_S:

    scaled = measured * (REFERENCE_S / kernel time around it) ** SENSITIVITY

The time spent in the handler is taken out of each measurement.  The kernel
never touches the program under test, so a change to the program cannot
move it.  Its dict/tuple/sort/set mix tracked the program's lattice, DP, JSON
and trial-division work to within a few percent across host speed changes; a
pure integer loop tracked them less well.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

#: Scaled times are seconds on a host where one kernel run takes this long.
REFERENCE_S = 0.0005
#: How much of the kernel's speed change the program's time follows, on a log
#: scale.  Across passes of the same query, log latency moved 0.71 to 0.99
#: times as far as log kernel time on the four workloads (0.8 on average), so
#: scaling by the full kernel ratio would overcorrect.
SENSITIVITY = 0.8
INTERVAL_S = 0.02


def kernel() -> int:
    counts: dict[int, int] = {}
    pairs = []
    for i in range(800):
        k = i * 7919 % 1009
        counts[k] = counts.get(k, 0) + 1
        pairs.append((k, i & 7))
    pairs.sort()
    return len({k for k, _ in pairs}) + sum(counts.values())


def kernel_time() -> float:
    """One kernel run, with the collector off: the kernel makes no cycles,
    and the caller's heap must not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def speed_scale(repeats: int) -> float:
    """The speed scale from the median of a few back-to-back kernel runs."""
    return (REFERENCE_S / statistics.median(kernel_time() for _ in range(repeats))) ** SENSITIVITY


class Sampler:
    """Times the kernel from SIGALRM every INTERVAL_S while active.

    `spent` is the total time spent in the handler and `windows` its
    (start, end) intervals, so a caller can take them out of a measurement.
    """

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []
        self.windows: list[tuple[float, float]] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        took = kernel_time()
        self.at.append(start)
        self.took.append(took)
        end = time.perf_counter()
        self.windows.append((start, end))
        self.spent += end - start

    def __enter__(self) -> "Sampler":
        self.previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._tick(signal.SIGALRM, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def scale(self, start: float, end: float) -> float:
        """The speed scale for a measurement from start to end, from the
        median kernel time among the samples taken in between and the nearest
        one on either side."""
        lo = max(0, bisect.bisect_left(self.at, start) - 1)
        hi = bisect.bisect_right(self.at, end) + 1
        return (REFERENCE_S / statistics.median(self.took[lo:hi])) ** SENSITIVITY
