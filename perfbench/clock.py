"""A wall clock that stops while the virtual machine is not running.

In a shared virtual machine the hypervisor takes the CPUs away from time to
time; Linux counts that time as *steal* in ``/proc/stat``.  Stolen time
lengthens every wall-clock measurement by an amount no change to the
program can affect, and it varies with the load of other tenants, so the
benchmark's end-to-end times subtract it: ``now()`` is ``perf_counter``
minus the steal time accumulated so far, averaged over the CPUs.  On bare
metal, or where ``/proc/stat`` is missing, steal is zero and ``now()`` is
plain wall time.  Steal is counted in clock ticks (10 ms), so differences
of ``now()`` are meant for intervals of a tenth of a second or more.
"""

from __future__ import annotations

import os
import time

_TICKS_PER_S = os.sysconf("SC_CLK_TCK")
_CPUS = os.cpu_count() or 1


def stolen_s() -> float:
    """Steal time since boot, in seconds per CPU."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9 or fields[0] != "cpu":
        return 0.0
    return int(fields[8]) / _TICKS_PER_S / _CPUS


def now() -> float:
    """Seconds on a clock that does not advance during steal time."""
    return time.perf_counter() - stolen_s()
