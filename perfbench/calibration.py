"""Machine-speed calibration for timings taken on a shared machine.

On a virtual machine whose cores are shared with other tenants, the same
interpreted work can take up to twice as long from one second to the next,
and the process's own CPU time slows just as much as its wall time. So
while a measured call runs, a SIGALRM handler times a short fixed loop of
exact rational arithmetic (the kind of work alphaperm does, but none of
alphaperm's code) every INTERVAL_S, and the call's time is scaled to a
nominal machine speed:

    scaled time = (wall time - time spent in the loop) * NOMINAL_S
                  / median loop time during the call

On a machine that runs the loop in NOMINAL_S the scaled time equals the
wall time. The loop runs with the garbage collector off, so that a
collection of alphaperm's heap is never charged to the loop (and scaled
out of alphaperm's time), and the median keeps one slow sample from moving
a whole call. The handler only reads the clock and builds its own
Fractions; it touches no state of the interrupted code. The loop still
shares caches and the allocator with alphaperm, so scaled and wall-clock
ratios can differ; every traced run reports its overhead both ways
(trace.overhead_frac and trace.overhead_frac_wall) as a check on a known
slowdown.

Of the loops tried, this small one tracked alphaperm's times best, better
than loops adding large fractions or a cache-sized working set; what it
does not track is left in the spread that BENCHMARK.json's bounds absorb.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.025
# the unit of scaled time: one loop's time on a 2.0 GHz Xeon vCPU under
# Python 3.11 in a slow phase; the same vCPU has run it in 0.38-0.75 ms
NOMINAL_S = 0.00075

_N = 4
_ROWS = [[Fraction((3 * i + 5 * j) % 7 + 1, (i + 2 * j) % 4 + 1)
          for j in range(_N)] for i in range(_N)]


def _loop() -> Fraction:
    """Ryser's inclusion-exclusion permanent of a fixed 4x4 rational
    matrix."""
    acc = Fraction(0)
    for mask in range(1, 1 << _N):
        prod = Fraction(1)
        for row in _ROWS:
            s = Fraction(0)
            for j in range(_N):
                if mask >> j & 1:
                    s += row[j]
            prod *= s
        acc += prod if bin(mask).count("1") % 2 == _N % 2 else -prod
    return acc


def loop_seconds() -> float:
    """Wall time of one calibration loop, now, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(work_s: float, loop_s: float) -> float:
    """Seconds of work at the speed the loop measured -> nominal seconds."""
    return work_s * NOMINAL_S / loop_s


class SpeedSampler:
    """Times the calibration loop every INTERVAL_S between start and stop.

    Uses SIGALRM, so it runs in the main thread of a process that sets no
    other interval timer.
    """

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append(loop_seconds())

    def start(self) -> None:
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple:
        """Stop sampling; return (seconds spent in the loop, median loop
        time). A span shorter than INTERVAL_S gets one sample now."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        samples = self.samples or [loop_seconds()]
        return sum(self.samples), statistics.median(samples)
