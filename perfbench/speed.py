"""Machine-speed probe for reference-speed timings.

The benchmark runs on shared machines whose speed drifts: on the two-CPU
machine the benchmark was written on, the same pure-Python loop took
anywhere from 13 to 22 ms within a minute, with no CPU steal visible, so
neighbouring load on the host rather than our own processes set the pace.
Raw wall times of identical runs spread by 20-45% (quartile distance over
median); the same times divided by a reference loop timed alongside them
spread far less.

While a `SpeedProbe` runs, an interval timer times one fixed pure-Python
loop (the reference loop) every `SAMPLE_EVERY_S`, inside operations as
well as between them; the time the probe itself takes is subtracted from
the operation it interrupted.  An operation's speed is the median loop time
over the samples taken from `WINDOW_S` before it started to `WINDOW_S`
after it ended, and its reference time is
``raw * REFERENCE_LOOP_S / speed``: the time it would have taken had the
machine run the loop in exactly `REFERENCE_LOOP_S`.  The loop and the
constant are fixed, so reference times of two commits measured on one
machine compare directly; they are not seconds on any other machine.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

REFERENCE_LOOP_S = 0.0015  # the loop's duration at the reference speed
SAMPLE_EVERY_S = 0.05
WINDOW_S = 0.25  # samples this close to an operation set its speed
_LOOP_ITERATIONS = 20_000


def reference_loop() -> int:
    total = 0
    for i in range(_LOOP_ITERATIONS):
        total += i * i % 7
    return total


def sample() -> float:
    """Seconds the reference loop takes right now (median of three)."""
    times = []
    for _ in range(3):
        started = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


class SpeedProbe:
    """Reference-loop samples taken on a timer (SIGALRM) while running."""

    def __init__(self) -> None:
        self.at: list[float] = []     # sample midpoints, ascending
        self.loop: list[float] = []   # loop durations
        self.spent = 0.0              # total time inside the probe

    def __enter__(self) -> SpeedProbe:
        self._take()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._take()

    def _on_alarm(self, _signum, _frame) -> None:
        self._take()

    def _take(self) -> None:
        started = time.perf_counter()
        reference_loop()
        ended = time.perf_counter()
        self.at.append((started + ended) / 2)
        self.loop.append(ended - started)
        self.spent += ended - started

    def scale(self, start: float, end: float) -> float:
        """Reference-time factor for an operation that ran from start to end."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo >= hi:  # no sample near: take the closest one
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return REFERENCE_LOOP_S / statistics.median(self.loop[lo:hi])
