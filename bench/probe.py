"""Machine-speed probe, run inside every measured process.

The benchmark's times are meant to compare two versions of orbitseries, but
on a shared host the speed of a CPU changes by up to 1.7x from one second to
the next and drifts for minutes, with the load of other tenants. A run
cannot average that away. So every process whose time is measured starts a
probe: an interval timer (SIGALRM) that every `INTERVAL_S` interrupts the
process and times a fixed piece of pure-Python work, `tick_work`, which
uses nothing of orbitseries. The ticks are interleaved with the measured
work on the same thread, so they see the speed the work saw.

bench/run.py then subtracts a process's ticks from its measured time and
scales the rest by `speed` = mean of `REFERENCE_S / tick` over that
process's ticks: the result is in seconds at the reference speed, the
speed at which one tick takes `REFERENCE_S` (about the median on the
2-core host of bench/baseline.json). A change to orbitseries cannot move
the ticks.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
FIRST_S = 0.01
REFERENCE_S = 0.00075

_FACTOR = {0: Fraction(1), 1: Fraction(-1, 3), 3: Fraction(2, 5)}


def tick_work() -> int:
    """A fixed amount of work in the style of exactpoly: a product of sparse
    polynomials with Fraction coefficients, kept in dicts."""
    p = {0: Fraction(1)}
    for _ in range(6):
        q = {}
        for i, a in p.items():
            for j, b in _FACTOR.items():
                q[i + j] = q.get(i + j, 0) + a * b
        p = q
    return len(p)


class Probe:
    """Times `tick_work` on SIGALRM while started; `ticks` holds the times."""

    def __init__(self):
        self.ticks: list[float] = []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        tick_work()
        self.ticks.append(time.perf_counter() - t0)

    def start(self) -> "Probe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, FIRST_S, INTERVAL_S)
        return self

    def stop(self) -> list[float]:
        """Stop the timer; a process that ended before the first tick takes
        one now, so that every process has a speed."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.ticks:
            self._tick(None, None)
        return self.ticks


def speed(ticks: list[float]) -> float:
    """Mean speed over the ticks, relative to the reference speed. The ticks
    are spread evenly in time, so this is the time-averaged speed; a tick
    slowed by a context switch pulls the mean down only a little."""
    return sum(REFERENCE_S / t for t in ticks) / len(ticks)
