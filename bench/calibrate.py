"""Machine-speed calibration.

The benchmark's timings come from shared machines whose speed drifts by tens
of percent within seconds (other tenants on the same cores).  Every timed
operation is therefore bracketed by a fixed pure-Python reference kernel,
and its wall time is rescaled to a machine on which the kernel takes
``REFERENCE_S``: ``normalised = wall * REFERENCE_S / kernel``.  A long
operation is bracketed by more kernel runs (their median), as one 2 ms run
is too noisy a speed reading for a multi-second operation.  The kernel uses
none of cantorperm, so a change to the package cannot move it.  Raw wall
times are kept next to the normalised ones in the results file.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

# about the kernel's time on an idle 2-CPU Xeon VM
REFERENCE_S = 0.002


def kernel() -> float:
    """Seconds taken by one run of the reference kernel: the mix the package
    itself spends its time on (Fractions, big-int arithmetic, dicts, sorting
    and string building)."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    parts = []
    for i in range(1, 400):
        acc += Fraction(i, i * 7 + 3)
        table[i * 2654435761 % 1000003] = i
        parts.append(str(i * i))
    ",".join(parts)
    sorted(table.items())
    return time.perf_counter() - start


def speed(expected_s: float) -> float:
    """Median kernel time over enough runs to cover 2% of an operation
    expected to take ``expected_s`` seconds."""
    runs = max(1, round(0.02 * expected_s / REFERENCE_S))
    return statistics.median(kernel() for _ in range(runs))
