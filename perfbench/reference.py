"""A fixed pure-Python kernel that tells how fast the machine runs right now.

A shared virtual machine changes speed for minutes at a time: on a
2-vCPU VM the same genjac job list ran 1.25 to 1.9 times slower while a
neighbour was busy, with CPU time equal to wall time, and such a period
outlasts a whole run.  Raw wall times of two runs of the same code then
differ by more than any useful regression bound.

The benchmark times this kernel right before every job and around every
set-up, and scales each timing by REFERENCE_MS over the median kernel
time around it (`scale_factors`), so the timing reads as it would on a
machine where the kernel takes REFERENCE_MS.  The kernel never calls
genjac: a change to the library moves the scaled figures as much as the
raw ones, and only the machine's speed cancels.

The kernel is a tight loop of integer arithmetic.  Over slow periods of
several minutes, scaling by it took the spread of 10-second window
medians of job latency from 0.12-0.39 to 0.02-0.08 of the median on all
three workloads.  A kernel of small-object arithmetic slowed down more
than the jobs did and over-corrected.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# the kernel's time on an unloaded 2-vCPU x86-64 VM under CPython 3.11;
# it only sets the scale, so scaled times read close to raw ones there
REFERENCE_MS = 1.5
# kernel timings on each side of a job that set its scale: a wider
# window misses bursts of a second or two and leaves them in job_p90_ms
WINDOW = 2
# kernel timings on each side of a set-up
SETUP_WINDOW = 10


def _kernel() -> int:
    acc = 1
    for i in range(10_000):
        acc = (acc * 1103515245 + i) % 2147483647
    return acc


def time_kernel() -> float:
    """Seconds one kernel run takes now."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def scale(kernel_s: list[float]) -> float:
    """Scale factor for a timing taken among these kernel timings."""
    return REFERENCE_MS / 1e3 / statistics.median(kernel_s)


def scale_factors(kernel_s: list[float], n: int) -> list[float]:
    """Scale factors of n timed intervals from n + 1 kernel timings.

    Kernel timing i was taken right before interval i, and timing n after
    the last one; interval i is scaled by the median of the WINDOW
    timings on each side of it.
    """
    if len(kernel_s) != n + 1:
        raise ValueError(f"{n} intervals need {n + 1} kernel timings, got {len(kernel_s)}")
    return [scale(kernel_s[max(0, i + 1 - WINDOW): i + 1 + WINDOW]) for i in range(n)]
