"""Reference-speed clock: scales wall time by how fast the machine runs now.

On a shared host the same request can run twice as slow a second later,
because other tenants compete for the core.  A ``Speedometer`` runs a fixed
pure-Python calibration chunk from a ``SIGALRM`` handler every
``EVERY_S`` seconds while it is running, in the one thread of the process,
also in the middle of a long request.  The chunk's time over ``REF_MS``
is the machine's *slowness* at that moment.  ``split(t0, t1)`` returns the
wall time of an interval without the chunks that ran inside it, and the
same time at the reference speed: each stretch between two chunks is
divided by the mean slowness of those two chunks.

The chunk uses no ``weylkit`` code, so a change to the program never
changes the reference.  It leaves no tracked objects behind, so it does not
move the garbage collector's schedule.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from fractions import Fraction

REF_MS = 2.5  # time of one calibration chunk at the reference speed
EVERY_S = 0.05  # one chunk per 50 ms of wall time


def calibration_chunk() -> None:
    """A fixed job of the program's flavour: Fraction arithmetic, dicts, strings."""
    acc, table = Fraction(0), {}
    for i in range(1, 700):
        acc += Fraction(i % 7 - 3, i % 5 + 1)
        key = (i % 97) * 13 + i % 13
        table[key] = table.get(key, 0) + i
        f"x{i % 3}*d{i % 5}".partition("*")


class Speedometer:
    def __init__(self) -> None:
        self.starts: list[int] = []  # ns, perf_counter_ns
        self.ends: list[int] = []
        self._in_chunk = False

    def tick(self, *_signal) -> None:
        # a chunk held up past the next alarm would otherwise nest a second one
        if self._in_chunk:
            return
        self._in_chunk = True
        t0 = time.perf_counter_ns()
        calibration_chunk()
        self.starts.append(t0)
        self.ends.append(time.perf_counter_ns())
        self._in_chunk = False

    @contextlib.contextmanager
    def running(self):
        """Sample the speed while the block runs, with a chunk at either end."""
        self.tick()
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.tick()

    def slowness(self, k: int) -> float:
        """How many times slower than the reference chunk ``k`` ran."""
        return (self.ends[k] - self.starts[k]) / 1e6 / REF_MS

    def _gap_slowness(self, k: int) -> float:
        """Slowness of the stretch after chunk ``k`` (-1: before the first)."""
        last = len(self.starts) - 1
        if k < 0:
            return self.slowness(0)
        if k >= last:
            return self.slowness(last)
        return (self.slowness(k) + self.slowness(k + 1)) / 2

    def split(self, t0: int, t1: int) -> tuple[float, float]:
        """(wall ns, reference-speed ns) of [t0, t1], chunks inside it left out."""
        k = bisect.bisect_right(self.starts, t0) - 1
        wall = ref = 0.0
        t = max(t0, self.ends[k]) if k >= 0 else t0
        while t < t1:
            nxt = self.starts[k + 1] if k + 1 < len(self.starts) else t1
            end = min(t1, nxt)
            if end > t:
                wall += end - t
                ref += (end - t) / self._gap_slowness(k)
            k += 1
            t = self.ends[k] if k < len(self.ends) else t1
        return wall, ref

    def median_slowness(self) -> float:
        return statistics.median(self.slowness(k) for k in range(len(self.starts)))
