"""A gauge of how fast the host runs, sampled all through a measurement.

The benchmark shares its machine with other work.  On the 2-core VM it
was built on, a fixed pure-Python loop ran up to 2.3 times slower than
its best for tens of seconds at a time, and the same pass took anywhere
from 6.6 s to 10.4 s, with CPU time tracking wall time: the process was
running, only slower.

So every worker starts a ``Gauge``: a SIGALRM timer that every PERIOD_S
runs a short fixed loop (Fraction arithmetic and dict updates, the mix
nkoszul spends its time on) and records how long it took.  An interval of
program time is then converted into *reference seconds*: each stretch
between two samples is divided by the slowdown of the sample that ends
it, and the sampling itself is left out.  A reference second is a second
of a host running the loop in CHUNK_NOMINAL_S.  The loop uses only the
standard library, so no change to nkoszul can move it.  On repeated runs
of one ~0.9 s case, this took the spread between quartiles from 23% of
the median to 3%.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
CHUNK = 600
# The fastest chunk seen on the machine above (CPython 3.11, 1500 samples);
# it only scales reference seconds to seconds of that host at its best.
CHUNK_NOMINAL_S = 0.0018

_VALUES = [Fraction(n, d) for n in range(-7, 8) for d in (1, 2, 3, 5)]


def _chunk() -> None:
    values = _VALUES
    k = len(values)
    row: dict = {}
    for i in range(CHUNK):
        a = values[i % k]
        b = values[(i * 7 + 3) % k]
        key = (i * 13) % 97
        cur = row.get(key)
        v = a * b if cur is None else cur - a * b
        if v:
            row[key] = v
        else:
            row.pop(key, None)


class Gauge:
    """Samples the host's speed on a timer; all times are ``time.monotonic``."""

    def __init__(self) -> None:
        self.samples: list = []  # (start, duration)

    def sample(self, *_args) -> None:
        t0 = time.monotonic()
        _chunk()
        self.samples.append((t0, time.monotonic() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def sampling_seconds(self, t0: float, t1: float) -> float:
        """Wall time the gauge itself took inside [t0, t1]."""
        return sum(d for s, d in self.samples if t0 <= s < t1)

    def reference_seconds(self, t0: float, t1: float) -> float:
        """Program time inside [t0, t1], in reference seconds."""
        total = 0.0
        prev_end = t0
        last = self.samples[0][1]
        for start, dur in self.samples:
            if start < t0:
                last = dur
                continue
            if start >= t1:
                break
            total += (start - prev_end) / dur
            prev_end = start + dur
            last = dur
        total += (t1 - prev_end) / last
        return total * CHUNK_NOMINAL_S
