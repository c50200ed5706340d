"""Host speed reference, so that timings are compared at one speed.

The benchmark runs on a few cores of a shared host whose speed drifts
by up to 1.7x within seconds and between phases a few minutes apart;
the same pure-Python loop, timed over and over, shows it.  A timing
taken in a slow phase would read as a regression of the program.  So
the harness times a fixed probe, pure-Python object and integer work
that shares no code or data with the library, every PROBE_EVERY_NS
between cases (and before and after each long case), and scales each
case's wall time by REF_PROBE_NS / (the median probe time around the
case).  The result is the time the case would take at the reference
speed, where the probe takes REF_PROBE_NS, which is about what it takes
in a calm phase of a 2-core Intel Xeon virtual machine running Python
3.11.  The probes run outside the timed cases, so they add no time to
them.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

PROBE_SIZE = 2000
PROBE_REPEATS = 5  # a probe point records the median of these
REF_PROBE_NS = 420_000
PROBE_EVERY_NS = 50_000_000
WINDOW_NS = 250_000_000  # probe points this close to a case count for it


class _Cell:
    __slots__ = ("value",)


_PROBE_VALUES = tuple(range(300, 300 + PROBE_SIZE))


def _probe_work() -> int:
    """Make PROBE_SIZE small objects, set and read an attribute of each
    and do modular int arithmetic: the kind of work the library does.

    The garbage collector is off meanwhile and every object is freed
    before it is turned back on, so the probe neither triggers nor pays
    for a collection of the library's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        cells = [_Cell() for _ in _PROBE_VALUES]
        for cell, v in zip(cells, _PROBE_VALUES):
            cell.value = (v * 7 + 3) % 10007
        acc = 0
        for cell in cells:
            acc = (acc + cell.value * cell.value) % 10007
        del cells
        return acc
    finally:
        if enabled:
            gc.enable()


class SpeedMeter:
    """Probe points over time; ``factor`` gives the scale for one interval."""

    def __init__(self):
        self.times = []  # end of each probe point, perf_counter_ns
        self.durations = []  # median probe time of each point, ns

    def probe(self) -> None:
        clock = time.perf_counter_ns
        runs = []
        for _ in range(PROBE_REPEATS):
            start = clock()
            _probe_work()
            runs.append(clock() - start)
        self.times.append(clock())
        self.durations.append(statistics.median(runs))

    def maybe_probe(self) -> None:
        if not self.times or time.perf_counter_ns() - self.times[-1] >= PROBE_EVERY_NS:
            self.probe()

    def current(self) -> float:
        """The scale from the last few probe points, for use during a run."""
        return REF_PROBE_NS / statistics.median(self.durations[-5:])

    def factor(self, start_ns: int, end_ns: int) -> float:
        """REF_PROBE_NS over the median probe time near [start_ns, end_ns].

        Uses every probe point within WINDOW_NS of the interval, and at
        least the last point before it and the first after it.
        """
        times = self.times
        if not times:
            raise ValueError("no probe points recorded")
        lo = bisect.bisect_left(times, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(times, end_ns + WINDOW_NS)
        lo = min(lo, max(0, bisect.bisect_right(times, start_ns) - 1))
        hi = max(hi, min(len(times), bisect.bisect_left(times, end_ns) + 1))
        return REF_PROBE_NS / statistics.median(self.durations[lo:hi])
