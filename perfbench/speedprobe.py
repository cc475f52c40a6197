"""Sampling the host's speed while an op runs.

The host this benchmark was tuned on (a 2-vCPU Xeon guest) changes speed by
up to 1.8x, in spells from under a second to over a minute, which neither
the guest's CPU time nor its steal time shows.  An op timed in a slow spell
reads up to 1.8x slower although the program did the same work, and runs of
the same code spread by over a quarter.

While an op runs, `SpeedProbe` interrupts it every `PERIOD_S` of wall time
(SIGALRM) and times a fixed pure-Python loop in the signal handler.  The
median of those loop times is the host's speed during that very op; the
op's time divided by it is in units of the loop's time and moves with the
program, not with the host.  The handler's own time is left out of the op's
time (`busy_s`), and it touches no state of the op, so reports are
unchanged.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.01
_LOOP = range(3000)


def _loop():
    s = 0
    for i in _LOOP:
        s += i * i % 7
    return s


class SpeedProbe:
    """Context manager: samples the loop's time while its block runs.

    Must be entered from the main thread; not reentrant.
    """

    def __init__(self, period_s=PERIOD_S):
        self.period_s = period_s
        self.samples = []
        # handler time in the last block, and over every block
        self.busy_s = 0.0
        self.total_busy_s = 0.0
        self._previous = None

    def _sample(self):
        start = time.perf_counter()
        _loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        return took

    def _handler(self, signum, frame):
        took = self._sample()
        self.busy_s += took
        self.total_busy_s += took

    def __enter__(self):
        # one sample on entry, outside the block's time, so that a block
        # shorter than the period still has one
        self.samples = []
        self.total_busy_s += self._sample()
        self.busy_s = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    @property
    def loop_s(self) -> float:
        """Median time of one loop while the last block ran."""
        return statistics.median(self.samples)
