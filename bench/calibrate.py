"""A fixed pure-Python workload that gauges the machine's current speed.

On a shared virtual machine the effective CPU speed drifts by a fifth or
more over minutes, and every CPU-bound timing drifts with it.  A run
measures this calibration between its rounds.  It then reports its times
in reference seconds: wall seconds times REFERENCE_S / (mean calibration
time).  The calibration calls nothing in ordercircuits, so a change to the
library moves the reported times by its full effect.
"""

from __future__ import annotations

import random
import statistics
import time

import inputs
import oracle

# Mean calibration time on the machine the bounds were set on (2 vCPU
# VM, Python 3.11.7).  It only scales the reported numbers.
REFERENCE_S = 0.045
CALIBRATION_SEED = 1


class Calibration:
    """Times one fixed pass per call; `factor` turns wall into reference time."""

    def __init__(self):
        rng = random.Random(CALIBRATION_SEED)
        self.views = [inputs.random_spec(rng, 9, 0.25, 4).view() for _ in range(16)]
        self.times = []

    def measure(self):
        t0 = time.perf_counter()
        for v in self.views:
            oracle.morphisms(v, v)
        x = 0
        for i in range(150_000):
            x += i * i ^ (i >> 3)
        self.times.append(time.perf_counter() - t0)

    def factor(self):
        """Reference seconds per wall second over the passes so far."""
        return REFERENCE_S / statistics.mean(self.times)
