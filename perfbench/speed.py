"""Host speed, measured alongside the work and used to scale its times.

The two-core VM the baseline was recorded on flips between a fast and a
slow state (about 1.4x apart) every fraction of a second, in a mix that
drifts over minutes, so whole runs of one workload differed by up to 50%.
A tiny fixed loop is therefore timed every EVERY_S of CPU time (SIGPROF, so
also in the middle of operations), the time spent in it is left out of each
operation, and each time is multiplied by REF_S / (mean loop time within
WINDOW_S of it).  Over 2-s blocks of the pipeline the loop's mean time
correlated 0.95-0.97 with the block's, and the scaling cut the
block-to-block spread from 8-12% to 3%.
"""

import bisect
import signal
import statistics
from time import perf_counter

EVERY_S = 0.005
WINDOW_S = 0.25
REF_S = 40e-6


def loop() -> int:
    x = 0
    for i in range(400):
        x += i * i % 7
    return x


def burst_mean(count: int = 200) -> float:
    """Mean loop time over `count` back-to-back runs.  Back to back the loop
    stays in cache and runs faster than when sampled inside operations, so
    these means are kept apart from the samples that `Speed` records."""
    total = 0.0
    for _ in range(count):
        start = perf_counter()
        loop()
        total += perf_counter() - start
    return total / count


class Speed:
    """Times of `loop` through the run, and the scale they give."""

    def __init__(self):
        self.times: list[float] = []
        self.loop_s: list[float] = []
        self.spent = 0.0  # seconds inside the loop so far

    def sample(self, *_signal) -> None:
        start = perf_counter()
        loop()
        end = perf_counter()
        self.times.append(end)
        self.loop_s.append(end - start)
        self.spent += end - start

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def scale(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.loop_s[lo:hi] or self.loop_s[max(lo - 1, 0) : lo + 1]
        return REF_S / statistics.fmean(near)
