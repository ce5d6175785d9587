"""A fixed reference computation that measures the machine's current speed.

On a shared machine the speed of pure-Python arithmetic is not steady: each
core flips between a fast and a slow state (about 1.7x apart) every few
tenths of a second, and the share of time in the slow state drifts over
minutes, so the same pass can take 12 s or 20 s.  The benchmark therefore
samples the speed while it works and reports times rescaled to the
reference speed:

    normalized = measured * NOMINAL_S / reference_s()

The reference does the kind of work jacobiforms does (a sparse product of
dict-keyed series with big integer coefficients, and a sum of Fractions),
never touches the package, and is the same in every version of it, so a
change to the program moves the normalized time and a change of machine
speed does not.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

# reference_s() on a 2-core Intel Xeon virtual machine, CPython 3.11, in
# its fast state; normalized times read as seconds at that speed.
NOMINAL_S = 0.0014
REPEATS = 2
# wall time between two samples of the speed while a pass works
INTERVAL_S = 0.05

_paused = 0.0  # time spent in SpeedSampler handlers in this process

_SERIES = {(i, j): (i * 7919 + j * 104729) ** 3 for i in range(18) for j in range(-i, i + 1, 3)}


def _burst() -> int:
    product: dict = {}
    for (i1, j1), c1 in _SERIES.items():
        for (i2, j2), c2 in _SERIES.items():
            if i1 + i2 < 18:
                key = (i1 + i2, j1 + j2)
                product[key] = product.get(key, 0) + c1 * c2
    total = Fraction(0)
    for n in range(1, 80):
        total += Fraction(n, n * n + 1)
    return len(product) + total.denominator % 7


def reference_s() -> float:
    """Fastest of a few timed bursts of the reference computation: brief
    interruptions only add time, the current speed sets the minimum."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _burst()
        best = min(best, time.perf_counter() - t0)
    return best


def work_clock() -> float:
    """time.perf_counter() less the time spent in SpeedSampler handlers, so
    that intervals timed with it hold only the program's work."""
    return time.perf_counter() - _paused


class SpeedSampler:
    """Samples the reference speed every INTERVAL_S from a SIGALRM handler
    while the main thread works; `work_clock` leaves the handler's time out.

    After `stop()`, `normalized_s()` is the time worked between `start()`
    and `stop()` with each interval between two samples rescaled by
    NOMINAL_S over the mean of the two samples around it."""

    def __init__(self):
        self.samples: list = []  # (handler start, handler end, reference_s)
        self._previous = None

    def _sample(self, *_signal) -> None:
        global _paused
        t0 = time.perf_counter()
        ref = reference_s()
        t1 = time.perf_counter()
        self.samples.append((t0, t1, ref))
        _paused += t1 - t0

    def start(self) -> "SpeedSampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def normalized_s(self) -> float:
        pairs = zip(self.samples, self.samples[1:])
        return sum((begin - end) * NOMINAL_S * 2 / (ref0 + ref1)
                   for (_, end, ref0), (begin, _, ref1) in pairs)
