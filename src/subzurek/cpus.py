"""The number of CPUs this process may run on.

The grid CSV writer forks one child, and the quadrature oracle starts one
helper thread, only when this is at least 2.  On one CPU a helper buys no
time (BENCH_10.json "one_cpu"), and a forked child would only add the cost
of the fork and of appending its half.
"""

from __future__ import annotations

import os


def cpu_count() -> int:
    """CPUs in this process's affinity mask; a CPU quota is not seen here."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
