"""Machine-speed calibration.

The benchmark shares its processor with other tenants, and the speed it gets
changes by a third or more within seconds.  A fixed loop of integer list
arithmetic and of dict, tuple, list and string work, unrelated to the
program, is timed over and over while the workload runs; each operation's
time is scaled by ``CAL_REF_S`` over the mean calibration time around and
during it.  Reported times are
therefore seconds on a machine where the loop takes ``CAL_REF_S``; the raw
times are kept in the result files.  The loop runs with the garbage
collector off, so the program's heap does not change its cost.
"""

from __future__ import annotations

import contextlib
import gc
import signal
from bisect import bisect_right
from time import perf_counter

CAL_REF_S = 0.00125
INTERVAL_S = 0.05


def _loop():
    # integer row operations on small lists, as in Smith normal form, then
    # dict, tuple, list and string work, as in loading and checking records
    rows = [[(i * 7 + j * 13) % 61 - 30 for j in range(5)] for i in range(4)]
    for _ in range(150):
        for i in range(1, 4):
            q = rows[i][0] // (rows[0][0] or 1)
            rows[i] = [a - q * b for a, b in zip(rows[i], rows[0])]
        rows.append(rows.pop(0))
        rows = [[x % 97 - 48 for x in r] for r in rows]
    d = {}
    for i in range(1500):
        d[(i, i % 7)] = [i, str(i)]
    return rows, sorted(d, key=lambda k: -k[0])[:3]


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    """Calibration samples and the scale they give to a timed interval.

    :meth:`tick`, called between operations, takes a sample when the last
    one is ``interval`` seconds old.  With ``timer``, a wall-clock interval
    timer also takes one inside an operation that runs longer than
    ``INTERVAL_S``, and
    ``paused_s`` counts the time spent in samples so that callers can take
    it out of their operations.  Short operations are never interrupted, so
    the samples do not slow them.  A workload that waits on a child process
    runs without the timer, so the samples do not compete with the child
    for the processor.
    """

    def __init__(self, timer: bool, interval: float = INTERVAL_S):
        self.timer = timer
        self.interval = interval
        self.times: list[float] = []
        self.cal: list[float] = []
        self.paused_s = 0.0

    def sample(self, *_) -> None:
        t0 = perf_counter()
        self.cal.append(calibrate())
        t1 = perf_counter()
        self.times.append(t1)
        self.paused_s += t1 - t0

    def tick(self) -> None:
        if perf_counter() - self.times[-1] >= self.interval:
            self.sample()
            if self.timer:
                signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    @contextlib.contextmanager
    def running(self):
        """Sample at the start and the end, and on the timer in between."""
        self.sample()
        if self.timer:
            previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            if self.timer:
                signal.setitimer(signal.ITIMER_REAL, 0, 0)
                signal.signal(signal.SIGALRM, previous)
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """CAL_REF_S over the mean of the samples from the last one before
        ``start`` to the first one after ``end``."""
        i = max(bisect_right(self.times, start) - 1, 0)
        j = bisect_right(self.times, end) + 1
        around = self.cal[i:j]
        return CAL_REF_S * len(around) / sum(around)


def timed(clock: Clock, times: list, fn, *args):
    """Call ``fn(*args)`` and append (start, end, seconds less the
    calibration pauses) to ``times``."""
    paused = clock.paused_s
    start = perf_counter()
    value = fn(*args)
    end = perf_counter()
    times.append((start, end, end - start - (clock.paused_s - paused)))
    return value
