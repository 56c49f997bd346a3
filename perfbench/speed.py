"""Probes of the machine's speed, used to rescale measured times.

The development machine's speed drifts with load from outside the
benchmark: within minutes a fixed kernel's time moved by up to 1.7x, and
workload times moved with it, so the medians of 35 s runs spread by about
0.2 of their value.  run.py therefore probes the speed before and after
every repetition and rescales the repetition's times to the speed at
which the probe takes PROBE_REF_S, using the mean of the two probes.  On
a recorded eight-minute series of `L_C-thin` repetitions this narrowed
the quartile spread of 40 s run medians from 0.18 to 0.10.
"""

from __future__ import annotations

import statistics
import time

# probe time at the reference speed that rescaled times are quoted at
PROBE_REF_S = 0.1


def calibration_kernel() -> float:
    """Seconds for a fixed tuple-keyed dict and set churn."""
    t0 = time.perf_counter()
    d, s = {}, set()
    for i in range(100_000):
        k = (i % 977, i % 131, i & 7)
        d[k] = d.get(k, 0) + i
        t = (k[0] - 1, k[1] + 1, k[2])
        if t in s:
            s.discard(t)
        else:
            s.add(k)
    return time.perf_counter() - t0


def probe() -> float:
    """The machine's speed right now: median of five kernel timings."""
    return statistics.median(calibration_kernel() for _ in range(5))


def scale_between(before: float, after: float) -> float:
    """Factor from raw seconds to seconds at the reference speed."""
    return 2 * PROBE_REF_S / (before + after)
