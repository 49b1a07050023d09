"""Machine-speed calibration for the bagdb benchmark.

The shared host the benchmark was built on runs the same Python code at two
speeds about 1.7x apart, switching every few seconds, and not always in step
on its two CPUs.  A median or any fixed percentile of raw times then flips
between the two speeds from one run to the next.  So every time the
benchmark reports is normalised: the calibration loop below is timed on the
same CPU right before and right after the thing measured, and the measured
time is scaled by ``REFERENCE_S`` over the mean of the two loop times.  A
reported second is a second at the reference speed, the speed at which the
loop takes ``REFERENCE_S``.  Raw times are kept in the details line.
"""
from __future__ import annotations

import time

REFERENCE_S = 0.001


def _loop() -> int:
    """Interpreter work of the kind bagdb does: tuples, dict updates, a
    keyed sort.  About a millisecond on a current x86_64 core."""
    rows = [(i % 97, str(i), i * 0.5) for i in range(1500)]
    acc: dict = {}
    for a, b, c in rows:
        acc[(a, b)] = acc.get((a, b), 0.0) + c
    rows.sort(key=lambda r: (r[0], r[1]))
    return len(acc)


def loop_s() -> float:
    """Seconds one calibration loop takes now."""
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def normalise(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` at the reference speed, given the loop times around it."""
    return raw_s * 2.0 * REFERENCE_S / (before_s + after_s)
