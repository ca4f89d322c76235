"""Speed calibration against a fixed pure-Python kernel.

The CPU speed seen by one process on a shared host drifts: the same pairing
job measured 172 ms and 372 ms a minute apart on a 2-core Xeon VM, and its
CPU time tracked its wall time, so the drift is not time spent descheduled.
The benchmark therefore runs this kernel, which exercises what the program
spends its time on (Fraction arithmetic, big-integer remainders, small
containers, products of Fraction polynomials) and which no change to the
program can alter, right before and right after every timed job, and scales
the job's time by REFERENCE_S over the mean of those two kernel times.
Calibrating by the two neighbouring samples steadied the run-to-run spread
of the median, tail and throughput more than medians over wider windows did,
because the speed also moves within a second. The polynomial half tracks the
m x m table jobs, the integer half the factoring and CLI jobs. A calibrated
time reads as the time on a host where the kernel takes REFERENCE_S; the raw
wall times are reported beside it.

The kernel runs with the cyclic garbage collector off, so that it measures
only the host's speed: a collection it would otherwise trigger clears the
program's garbage and walks the program's live heap, which is the program's
cost.  That collection then falls into the next job, as it would in a loop
without the kernel.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

REFERENCE_S = 0.0015


def kernel() -> tuple:
    # Integer-bound half: Fraction updates, remainders, small containers.
    acc = Fraction(0)
    for i in range(1, 140):
        acc = acc * Fraction(i, i + 3) + Fraction(1, 2 * i + 1)
    rem = 0
    for d in range(3, 8000, 2):
        rem += 1000003 % d
    table = {k: [k, k * k] for k in range(400)}
    # Polynomial half: dense products of Fraction coefficient lists.
    a = [Fraction(3 * i + 1, 2 * i + 5) for i in range(8)]
    b = [Fraction(i - 4, 3 * i + 7) for i in range(8)]
    for _ in range(5):
        out = [Fraction(0)] * 15
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        a = out[:8]
    return acc, rem, len(table), out


class Calibrator:
    """Kernel timings taken between timed intervals.

    Call sample() before each timed interval and once after the last; the
    i-th interval is then bracketed by samples i and i + 1.
    """

    def __init__(self):
        self.durations: list[float] = []

    def sample(self) -> None:
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            self.durations.append(time.perf_counter() - t0)
        finally:
            gc.enable()

    def scale(self, i: int) -> float:
        """REFERENCE_S over the mean kernel time around interval i."""
        return 2 * REFERENCE_S / (self.durations[i] + self.durations[i + 1])
