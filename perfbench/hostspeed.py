"""Host speed probe, so that timings from a host whose speed drifts compare.

On a shared 2-vCPU Xeon host the CPU ran up to 2x slower for minutes at a
time; process CPU time slowed with wall time, so it is the CPU that slows,
not waiting.  Raw times there differ by the host's state more than by the
program.  The worker therefore times a fixed probe after each job and reports
job times scaled towards a reference host speed:
``t * (REF_S / probe_time) ** SENSITIVITY``.  The probe is the benchmark's
own code, so a change to the library moves only ``t``.  Raw times are
recorded beside the scaled ones.

The library's work slowed less than the probe when the host slowed.  Fitted
over 83 runs, log raw time moved with log probe time by 0.3 to 0.9, by
workload and metric, and the full correction over-corrected `symbolic` and
`render`.  Of the exponents 0, 0.5, 0.75 and 1, the square root gave the
smallest worst spread over nine earlier sets of 5 to 10 seeds.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REF_S = 0.0017  # probe seconds that count as the reference host speed
SENSITIVITY = 0.5  # share of the probe's slow-down that the jobs show, in logs


def probe() -> float:
    """Seconds for a fixed mix of the kinds of work the library does:
    Fraction and integer arithmetic with dict lookups, as in the exact
    layer, and Python float arithmetic, as in the tracer's evaluator."""
    t0 = perf_counter()
    acc, table, total = Fraction(0), {}, 0
    for i in range(1, 300):
        acc += Fraction(i, i + 1)
        key = (i % 11, i % 7)
        table[key] = table.get(key, 0) + i
    for i in range(4000):
        total += i * i % 7
    x, horner = 0.7, 0.0
    for i in range(6000):
        horner = horner * x + (i % 5) * 0.25
    return perf_counter() - t0


def scale(samples) -> float:
    """Factor that scales raw seconds towards the reference host speed."""
    return (REF_S / statistics.median(samples)) ** SENSITIVITY
