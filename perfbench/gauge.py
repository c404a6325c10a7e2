"""The host-speed gauge: every time the benchmark reports is in reference
seconds.

On a shared host the same Python code runs at speeds up to 1.6x apart from
one moment to the next, in spells of milliseconds to minutes; its CPU time
slows by the same factor, so the cause lies outside the process.  Raw
seconds from two runs of the same code then differ by more than any useful
regression bound.  The gauge measures that speed while the work runs:
a wall-clock timer interrupts the round every `SAMPLE_INTERVAL_S` and times
one run of `reference()`, a fixed pure-Python breadth-first search over
tuples that shares no code with vasskit.  A reference second is the time the
work would take on a host that runs `reference()` in exactly `REFERENCE_S`:

    reference seconds = (raw seconds - time spent sampling)
                        * mean over samples of (REFERENCE_S / sample time)

Samples are spaced evenly in wall time, so their mean speed is the speed the
work saw.  A change to vasskit cannot move the reference, so a slower or
faster vasskit shows in reference seconds as it would in raw ones.
"""

from __future__ import annotations

import signal
import statistics
from collections import deque
from time import perf_counter

REFERENCE_S = 0.0003  # about one reference() on a 2-core x86 VM, Python 3.11
SAMPLE_INTERVAL_S = 0.025
WARM_UP_RUNS = 30


def reference() -> int:
    """Fixed work: breadth-first search over 3-tuples until 400 are seen."""
    seen = {(0, 0, 0)}
    queue = deque([(0, 0, 0)])
    while queue and len(seen) < 400:
        a, b, c = queue.popleft()
        for nxt in ((a + 1, b, c), (a, b + 2, c), (a, b, c + 3), (a + b % 5, b, c + 1)):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return len(seen)


def _timed_reference() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


def warm_up():
    """Run reference() until the interpreter has specialised its code."""
    for _ in range(WARM_UP_RUNS):
        reference()


def speed_now(runs: int) -> float:
    """The host's speed right now, as a multiple of the reference speed:
    the mean of REFERENCE_S / t over `runs` timed runs of reference()."""
    return statistics.fmean(REFERENCE_S / _timed_reference() for _ in range(runs))


class SpeedGauge:
    """Samples the host's speed on a wall-clock timer while it is entered.

    `spent_s` is the time spent inside samples so far; subtract the part of
    it that falls inside an interval from that interval's raw duration."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_s = 0.0

    def _sample(self, _signum=None, _frame=None):
        took = _timed_reference()
        self.samples.append(took)
        self.spent_s += took

    def __enter__(self) -> SpeedGauge:
        warm_up()
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def speed(self) -> float:
        """Mean speed over the samples, as a multiple of the reference speed."""
        return statistics.fmean(REFERENCE_S / t for t in self.samples)
