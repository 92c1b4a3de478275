"""Speed-scaled timing.

The shared 2-vCPU VM this benchmark was written on runs a fixed loop up
to 30% slower for seconds at a time.  A short fixed probe (pure Python,
no library code) is timed before and after each measured call, and the
call's time is multiplied by PROBE_REF_S / (mean of the two probes):
times are seconds at the speed at which the probe takes PROBE_REF_S.
Probe time is never counted.
"""

from __future__ import annotations

import time

PROBE_REF_S = 0.0025


def probe() -> float:
    """Time a fixed piece of interpreter work: set, dict and integer
    operations, as in the library's inner loops."""
    t0 = time.perf_counter()
    seen = set()
    count = {}
    for i in range(12_000):
        x = (i * 7919) % 1009
        if x not in seen:
            seen.add(x)
        count[x & 63] = count.get(x & 63, 0) + 1
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into seconds
    at the reference speed."""
    return 2 * PROBE_REF_S / (before + after)


def timed(fn, *args):
    """Call fn(*args); return its result and its scaled time."""
    before = probe()
    t0 = time.perf_counter()
    out = fn(*args)
    raw = time.perf_counter() - t0
    return out, raw * scale(before, probe())
