"""Host speed, sampled beside the work, so runs share one time scale.

On a small virtual machine on shared hardware the same code runs up to
2x slower for stretches of seconds to minutes whenever neighbours load
the physical core; a whole run can fall inside such a stretch. The
process doing or driving the work therefore samples the CPU time of a
fixed piece of interpreter work on the same CPU, and times are reported
as ``measured * REFERENCE_NS / reference``. A program change moves the
scaled time as it moves the measured one; a busy neighbour slows the
work and the reference alike.
"""

from __future__ import annotations

import statistics
import time
from bisect import bisect_left, bisect_right
from typing import List, Tuple

#: reference_ns() on a quiet 2-vCPU KVM guest with Python 3.11.  Only a
#: unit: any fixed value puts every run on one scale.
REFERENCE_NS = 200_000
SAMPLE_EVERY_NS = 250_000_000


def reference_ns() -> int:
    """CPU time of a fixed slice of dict, tuple, str and frozenset work,
    best of three (which drops an interrupt landing in one)."""
    best = None
    for _ in range(3):
        start = time.thread_time_ns()
        table = {}
        for i in range(500):
            table[i % 97] = (i, str(i))
            frozenset((i, i + 1))
        spent = time.thread_time_ns() - start
        best = spent if best is None else min(best, spent)
    return best


class Speed:
    """Reference samples, taken between timed operations."""

    def __init__(self) -> None:
        self.samples: List[Tuple[int, int]] = []

    def sample(self) -> None:
        self.samples.append((time.perf_counter_ns(), reference_ns()))

    def tick(self) -> None:
        """Sample if the last sample is older than SAMPLE_EVERY_NS."""
        if (
            not self.samples
            or time.perf_counter_ns() - self.samples[-1][0] > SAMPLE_EVERY_NS
        ):
            self.sample()

    def bracket(self) -> int:
        """Sample now; the mark to pass to :meth:`factor_since` afterwards."""
        self.sample()
        return len(self.samples) - 1

    def factor_since(self, mark: int) -> float:
        """Sample again; the factor over every sample from *mark* on."""
        self.sample()
        return REFERENCE_NS / statistics.median(r for _, r in self.samples[mark:])

    def factor(self, start_ns: int, end_ns: int) -> float:
        """``REFERENCE_NS / reference`` over ``[start_ns, end_ns]`` (the
        nearest sample if none falls inside): multiply a time by it."""
        times = [t for t, _ in self.samples]
        lo, hi = bisect_left(times, start_ns), bisect_right(times, end_ns)
        if lo >= hi:
            lo = min(max(lo - 1, 0), len(times) - 1)
            hi = lo + 1
        return REFERENCE_NS / statistics.median(r for _, r in self.samples[lo:hi])
