"""Calibration of timings against the machine's drifting CPU speed.

On a shared host the same work can take 1.7 times as long from one
minute to the next, and CPU time drifts with wall time, so neither
clock alone gives steady figures.  The probe is a fixed piece of
pure-Python work (exact fractions and dictionary updates, the kind of
work netsynth does), timed between operations.  An operation's
calibrated time is its wall time scaled by ``REFERENCE_NS`` over the
median probe time around it: the time it would take on a machine where
the probe takes 1 ms.  netsynth code never runs inside the probe, so a
change to netsynth moves calibrated times just as it moves wall times.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_NS = 1_000_000
# probe at most this often, and after every operation at least this long
GAP_NS = 20_000_000
# probes within this distance of an operation measure its speed
WINDOW_NS = 2_000_000_000


def _work() -> int:
    total = Fraction(0)
    for i in range(1, 160):
        total += Fraction(i % 7 - 3, i)
    counts: dict[tuple[int, int], int] = {}
    for i in range(2400):
        key = (i % 37, i % 11)
        counts[key] = counts.get(key, 0) + i
    return total.denominator + len(counts)


class SpeedProbe:
    """Probe times, kept in the order they were taken."""

    def __init__(self):
        self.starts: list[int] = []
        self.costs: list[int] = []

    def sample(self) -> None:
        start = time.perf_counter_ns()
        _work()
        self.starts.append(start)
        self.costs.append(time.perf_counter_ns() - start)

    def sample_if_due(self) -> None:
        if not self.starts or \
                time.perf_counter_ns() - self.starts[-1] >= GAP_NS:
            self.sample()

    def scale(self, start_ns: int, end_ns: int) -> float:
        """Factor from wall time to calibrated time for one interval."""
        lo = bisect.bisect_left(self.starts, start_ns - WINDOW_NS)
        hi = bisect.bisect_right(self.starts, end_ns + WINDOW_NS)
        return REFERENCE_NS / statistics.median(self.costs[lo:hi])
