"""Host-speed correction for timings taken on a shared machine.

On a shared host, other tenants slow this machine by up to about 2x, in
phases that last from a second to minutes.  A fixed calibration loop --
small numpy eigensolves plus interpreter work, like entfate's own mix,
and touching no entfate code -- is timed before and after every timed
call, and every ``SAMPLE_INTERVAL_S`` during it from a SIGALRM handler.
A raw time ``t`` measured while the loop took ``c`` seconds on average is
reported as ``t * REFERENCE_LOOP_S / c``: the time the same work takes on
a host where the loop takes ``REFERENCE_LOOP_S``.  A program change moves
the corrected time by the same factor as the raw one; host phases largely
cancel.  Time spent in the handler is not counted in the raw time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# The loop's time on the tuning host (2-vCPU x86_64 VM, Python 3.11.7,
# numpy 2.4.6 with OpenBLAS 0.3.31) in its fast phase.  Changing it
# rescales every corrected time, so it is a benchmark change.
REFERENCE_LOOP_S = 1.0e-3
LOOP_ITERATIONS = 100
LOOP_REPEATS = 3
SAMPLE_INTERVAL_S = 0.2

_MATRIX = np.array(
    [[2.0, 0.5 - 0.25j, 0.1j, 0.3], [0.5 + 0.25j, 1.0, 0.2, -0.4j],
     [-0.1j, 0.2, 0.5, 0.7 + 0.1j], [0.3, 0.4j, 0.7 - 0.1j, -1.0]]
)


def _loop() -> float:
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(LOOP_ITERATIONS):
        acc += float(np.linalg.eigvalsh(_MATRIX)[0])
        acc += sum(k * k for k in range(16)) * 1e-12
    return time.perf_counter() - t0


def loop_seconds() -> float:
    """Median time of the calibration loop over a few repeats."""
    return statistics.median(_loop() for _ in range(LOOP_REPEATS))


def speed_factor(loop_s: float) -> float:
    """Multiply a raw time by this to express it at the reference speed."""
    return REFERENCE_LOOP_S / loop_s


def timed(fn):
    """Call ``fn()``; return (its result, raw seconds, corrected seconds)."""
    samples = [loop_seconds()]
    in_handler = 0.0

    def on_alarm(signum, frame):
        nonlocal in_handler
        t = time.perf_counter()
        samples.append(_loop())
        in_handler += time.perf_counter() - t

    previous = signal.signal(signal.SIGALRM, on_alarm)
    t0 = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        elapsed = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    samples.append(loop_seconds())
    raw = elapsed - in_handler
    return result, raw, raw * speed_factor(statistics.fmean(samples))
