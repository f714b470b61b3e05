"""The number of CPUs this process may run on.

The CSV export and the quadrature oracle start one helper thread only when
this is at least 2.  On one CPU a helper buys no time and its malloc arena
stays resident (BENCH_10.json "one_cpu").
"""

from __future__ import annotations

import os


def cpu_count() -> int:
    """CPUs in this process's affinity mask; a CPU quota is not seen here."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
