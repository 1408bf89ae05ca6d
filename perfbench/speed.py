"""Scaling measured times to the reference machine's uncontended speed.

On a machine shared with other tenants the same Python code runs up to
1.6× slower for seconds to minutes at a time (a busy sibling hyperthread,
shared caches); CPU time slows down with wall time, so no clock filters
it out.  The benchmark therefore times a fixed pure-Python probe right
before and right after every timed stretch and scales the stretch by
``REF_NS / mean(probe before, probe after)``.  A reported time is thus
what the stretch would have taken at the speed at which the probe takes
``REF_NS``, about the reference machine's speed when nothing else
contends for it.  The raw, unscaled times are kept beside the scaled ones.

The probe is benchmark code (it never calls frobcalc), so a change to the
package does not move it; garbage collection is paused while it runs, so
the package's heap does not either.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

_now = time.perf_counter_ns

# Reference speed: the probe (best of three) takes 0.75 ms, about what an
# uncontended 2-vCPU x86-64 VM running CPython 3.11 gives.
REF_NS = 750_000

_KEYS = list(range(613))


def _work():
    """Dict, int and Fraction work in the proportions of the package's
    inner loops (sparse column updates over 𝔽_p and ℚ)."""
    d = dict.fromkeys(_KEYS, 0)
    q = Fraction(0)
    for i in range(1, 1500):
        k = (i * 7919) % 613
        d[k] = (d[k] + i * i) % 10007
        if not i & 7:
            q += Fraction(i, k + 1)
    return q


class SpeedProbe:
    def __init__(self):
        self.prev = None          # last probe, while nothing ran since
        self.samples = []

    def measure(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = None
            for _ in range(3):
                t0 = _now()
                _work()
                dt = _now() - t0
                best = dt if best is None else min(best, dt)
        finally:
            if enabled:
                gc.enable()
        self.prev = best
        self.samples.append(best)
        return best

    def before(self):
        return self.prev if self.prev is not None else self.measure()

    def stale(self):
        """Benchmark-side work ran: the next stretch probes afresh."""
        self.prev = None

    def scaled(self, raw_ns, before):
        """raw_ns at reference speed, probing after the stretch."""
        after = self.measure()
        return raw_ns * 2 * REF_NS / (before + after)
