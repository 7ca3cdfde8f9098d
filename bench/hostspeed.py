"""Host speed probe.

The speed of a shared host drifts by tens of percent over seconds to
minutes, for every process alike.  CPU time tracks wall time, so the loss
is in instructions per second, not in waiting, and a longer run does not
average it away.  `probe()` times a fixed piece of exact sparse-polynomial
arithmetic (dicts keyed by exponent tuples, `Fraction` coefficients), the
kind of work tflkit's kernel does, but no tflkit code.  `scale()` converts
a time to seconds of a reference host on which one probe takes
REF_PROBE_S, given probes run during or right next to the timed work.

Probes run between rounds track a long round poorly (the host's speed
changes within it), so `Probing` runs them inside the timed block, from an
interval timer, and takes their time out of the block's.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from statistics import median
from time import perf_counter

REF_PROBE_S = 0.03
PROBE_INTERVAL_S = 0.4      # a probe every 0.4 s: about a tenth of the time


def _operand():
    rng = random.Random(7)
    return list({tuple(rng.randint(0, 4) for _ in range(6)):
                 Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                 for _ in range(40)}.items())


def probe():
    """Seconds for a fixed sparse-polynomial product, p * p * (5 terms of
    p), whose dicts reach a few thousand terms: a small working set tracks
    the host's speed for tflkit less well."""
    p = _operand()
    q = dict(p)
    t0 = perf_counter()
    for factor in (p, p[:5]):
        prod = {}
        for ma, ca in q.items():
            for mb, cb in factor:
                m = tuple(x + y for x, y in zip(ma, mb))
                prod[m] = prod.get(m, 0) + ca * cb
        q = prod
    return perf_counter() - t0


def scale(probe_times):
    """Reference-host seconds per second, from probes run alongside."""
    return REF_PROBE_S / median(probe_times)


class Probing:
    """Times a block and runs `probe()` every PROBE_INTERVAL_S inside it.

    The probes run from a SIGALRM handler, so in the main thread between
    bytecodes, with no thread or process.  Only probes that start and end
    inside the block count, and `seconds` is the block's wall time less
    theirs; `clock()` likewise leaves them out, for timing parts of the
    block.  Main thread only; the previous SIGALRM handler is restored.
    """

    def __init__(self):
        self.probes = []
        self.spent = 0.0
        self.t0 = self.t1 = None

    def _on_timer(self, signum, frame):
        if self.t0 is None or self.t1 is not None:
            return
        start = perf_counter()
        self.probes.append(probe())
        self.spent += perf_counter() - start

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S / 2,
                         PROBE_INTERVAL_S)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        if not self.probes:     # too short for the timer: probe after it
            self.probes.append(probe())

    def clock(self):
        """perf_counter() less the time probes have taken so far."""
        return perf_counter() - self.spent

    @property
    def seconds(self):
        return self.t1 - self.t0 - self.spent

    @property
    def scale(self):
        return scale(self.probes)
