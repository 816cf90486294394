"""Reference-scaled timing.

The benchmark runs on shared machines whose speed drifts by tens of
percent within seconds, and process CPU time drifts with it.  So every
time is reported as wall time * R0 / R, where R is the duration of a
fixed reference loop measured in the same worker around and during the
timed work, and R0 is the constant below.  A scaled second is the time the
work would take on a machine where the loop takes R0.

The loop allocates no containers, so neither the program's heap nor its
garbage collector can change R.  Besides integer arithmetic it hashes
tuples and looks them up in a small dict: of the loops tried, this one
tracked the program's slowdowns best.  During a query a SIGALRM interval
timer re-measures the loop every SAMPLE_INTERVAL seconds; the handler's
own time is excluded from the query's time (`clock` skips it).  The scaled
time of a query uses the mean speed 1/R over the samples taken during it
and within WINDOW of it, so a short query is not scaled by two noisy
samples.
"""

from __future__ import annotations

import signal
import time

REF_ITERS = 800
R0 = 0.00025  # s: near the median of R on a 2-vCPU cloud VM (0.25-0.29 ms), Python 3.11
SAMPLE_INTERVAL = 0.0125
EDGE_SAMPLES = 4  # explicit samples before and after each query
WINDOW = 0.1  # s: samples this close to a query count towards its speed

# built once; the loop only reads them
_KEYS = tuple((f"c{i}", i % 7) for i in range(64))
_TABLE = {key: i for i, key in enumerate(_KEYS)}


def reference_loop() -> float:
    """Duration of a fixed loop of tuple hashing, dict lookups and integer
    arithmetic (the program's staple operations), in seconds."""
    start = time.perf_counter()
    keys, table = _KEYS, _TABLE
    x = 0
    for i in range(REF_ITERS):
        key = keys[i & 63]
        x = (x * 31 + table[key] + (hash(key) & 7)) & 0xFFFFF
    return time.perf_counter() - start


class Sampler:
    """Timestamped reference samples for one worker, taken between and
    during queries."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock time, R)
        self.stolen = 0.0  # seconds spent in the timer handler
        self._busy = False

    def clock(self) -> float:
        """perf_counter minus the time spent sampling inside the handler."""
        return time.perf_counter() - self.stolen

    def sample(self) -> float:
        at = self.clock()
        r = reference_loop()
        self.samples.append((at, r))
        return r

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        self.sample()
        self.stolen += time.perf_counter() - start
        self._busy = False

    def start(self):
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _explicit_samples(self):
        # no timer sample may nest inside an explicit one
        self._busy = True
        try:
            for _ in range(EDGE_SAMPLES):
                self.sample()
        finally:
            self._busy = False

    def measure(self, fn):
        """Run fn(); return (result, start, end) on `clock`."""
        self._explicit_samples()
        t0 = self.clock()
        result = fn()
        t1 = self.clock()
        self._explicit_samples()
        return result, t0, t1

    def scale(self, t0: float, t1: float) -> float:
        """R0 times the mean speed 1/R over the samples taken within
        WINDOW seconds of the interval [t0, t1]."""
        speeds = [1.0 / r for at, r in self.samples
                  if t0 - WINDOW <= at <= t1 + WINDOW]
        return R0 * sum(speeds) / len(speeds)
