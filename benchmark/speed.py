"""Machine-speed probe: cancels shared-host slowdowns out of reported times.

On a shared VM the whole CPU slows down, for milliseconds to minutes at a
time, when neighbours are busy; the same run then reads 20-35% slower.  The
benchmark therefore runs a fixed pure-Python probe (it never calls sphgeo)
every PERIOD_S of wall time, also in the middle of ops, and divides each
op's latency by its local speed factor

    factor = median(probe seconds near the op) / PROBE_NOMINAL_S

so times read as on an uncontended core.  Probe time inside an op is taken
out of the op's latency.  A change to sphgeo cannot change the probe.
"""

from __future__ import annotations

import bisect
import math
import signal
import time
from typing import List, Sequence

PROBE_STEPS = 2600
# Median probe time on an uncontended core of the 2-vCPU Xeon VM the
# benchmark was calibrated on (CPython 3.11).  Only scales the reported
# numbers; comparisons between two commits do not depend on it.
PROBE_NOMINAL_S = 0.0005
PERIOD_S = 0.025  # wall time between probes while a Sampler is active
WINDOW_S = 0.1  # probes this close to an op also count for its factor


def probe() -> float:
    """Seconds taken by a fixed loop of float arithmetic, the interpreter
    work that dominates sphgeo's own vector code.  It creates no container
    objects, so it does not move the garbage collector's schedule."""
    t0 = time.perf_counter()
    x, y, z = 0.3, 0.4, 0.5
    acc = 0.0
    for _ in range(PROBE_STEPS):
        u, v, w = y * 0.5 - z * 0.2, z * 0.3 - x * 0.5, x * 0.2 - y * 0.3
        acc += math.sqrt(u * u + v * v + w * w)
        x, y, z = v + 0.1, w + 0.2, u + 0.3
    return time.perf_counter() - t0


def factor(probes: Sequence[float]) -> float:
    s = sorted(probes)
    mid = len(s) // 2
    median = s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2
    return median / PROBE_NOMINAL_S


class Sampler:
    """Runs `probe` from a SIGALRM timer every PERIOD_S while in a `with`
    block, recording when each probe started and how long it took."""

    def __init__(self) -> None:
        self.start: List[float] = []
        self.took: List[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        took = probe()
        self.start.append(t0)
        self.took.append(took)

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _span(self, t0: float, t1: float) -> slice:
        return slice(bisect.bisect_left(self.start, t0), bisect.bisect_left(self.start, t1))

    def inside(self, t0: float, t1: float) -> float:
        """Probe seconds that ran between t0 and t1."""
        return sum(self.took[self._span(t0, t1)])

    def factor(self, t0: float, t1: float) -> float:
        """Speed factor for an op that ran from t0 to t1."""
        near = self.took[self._span(t0 - WINDOW_S, t1 + WINDOW_S)]
        return factor(near) if near else self.median_factor()

    def median_factor(self) -> float:
        return factor(self.took)
