"""Taking the CPU's changing speed out of measured times.

On the shared 2-core box this benchmark was built on, the CPU's speed changes
by up to 2x from one second to the next: a fixed pure-Python loop, timed
back to back for a minute, took anywhere from 21 to 47 ms, with CPU time
equal to wall time throughout.  Raw pass times of the simulate ladder spread
by 37% (interquartile range over median) and 25-second windows of them by
over 20%, more than any usable bound.

So while ops run, a SIGALRM handler times `probe_work`, a fixed mix of
interpreter work, every INTERVAL_S.  An op's wall time, less the time spent
in the handler, is multiplied by PROBE_REF_S over the mean probe time seen
during the op and LOOKBACK_S before it: the result is seconds at the speed at
which the probe takes PROBE_REF_S.  On 90-150 s recordings this cut the
spread of single op times from 11-50% to 3-15%, and of simulate pass times
from 37% to 6%.  Program changes still show in full, since the probe runs
none of the program's code; only the machine's speed is divided out.
"""

from __future__ import annotations

import bisect
import signal
import time

INTERVAL_S = 0.02
# A round figure within the range of the probe's time on the box the baselines
# in README.md come from (0.20-0.35 ms), so reference seconds read like wall
# seconds there.  Changing it rescales every time metric.
PROBE_REF_S = 3.0e-4
LOOKBACK_S = 0.05


def probe_work() -> int:
    """A fixed mix of the interpreter work sicps does, in three parts of similar length.

    Integer arithmetic alone tracks the big-integer rate code best; list
    comprehensions with dict and tuple traffic track the field solves, and
    set and tuple hashing the graph code.  Over recordings of each workload
    the mix tracked op times about as well as the best single part did.
    """
    acc = 0
    for i in range(800):
        acc += i * i % 7
    row = list(range(40))
    table = {}
    for k in range(20):
        row = [(x * 31 + k) % 257 for x in row]
        table[(k, row[0])] = row[-1]
    seen = set()
    for i in range(150):
        seen.add((i, i % 13))
        acc += i * 7919 % 104729
    return acc + len(table) + len(sorted(seen))


class SpeedMeter:
    """Context manager sampling the CPU's speed while it is entered."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.probe_s: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        probe_work()
        self.times.append(start)
        self.probe_s.append(time.perf_counter() - start)
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "SpeedMeter":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()  # every later window then has a sample at or before it
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start - LOOKBACK_S, end]."""
        lo = bisect.bisect_left(self.times, start - LOOKBACK_S)
        hi = bisect.bisect_right(self.times, end)
        if lo == hi:
            lo = max(hi - 1, 0)
        window = self.probe_s[lo:hi]
        return PROBE_REF_S * len(window) / sum(window)
