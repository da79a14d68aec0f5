"""Elapsed time weighted by the machine's speed while it elapsed.

The box the benchmark was built on shares its cores with other tenants, and
the same code runs up to 1.7x slower from one second to the next.  Whole
passes of a workload average over those swings, and the average itself
drifts from one minute to the next, so raw wall times of identical runs
spread by 15-25%.

``SpeedClock`` fixes that by measuring the machine's speed all through the
timed region.  An interval timer interrupts the program every
``PROBE_INTERVAL_S`` and runs ``probe``, a fixed pure-Python loop.  Each
slice of program time between two probes is scaled by how long the probe at
its end took, relative to ``REFERENCE_PROBE_S``:

    ref_s = sum(slice_s * REFERENCE_PROBE_S / probe_s)

``ref_s`` is thus the time the region would have taken at the speed where the
probe takes exactly ``REFERENCE_PROBE_S``: about an uncontended core of the
reference box.  Probe time is left out of both ``wall_s`` and ``ref_s``; it
costs about 0.8% of the region.

Signals are handled in the main thread between bytecodes, so a slice ends
when a long native call (a numpy kernel) returns.  Python retries system
calls that the timer interrupts.
"""

from __future__ import annotations

import math
import signal
import time

PROBE_INTERVAL_S = 0.025
# Probe time on an uncontended core of the reference box (see README.md);
# it fixes the unit of ref_s and must not change between benchmarked commits.
REFERENCE_PROBE_S = 1.0e-4


def probe() -> float:
    """A fixed slice of interpreter work, about 0.1-0.2 ms.

    Calls, small-object allocation, dict access and float math, like the
    interpreter-bound parts of the workloads.  Of the probes tried it
    tracked all three workloads best (see README.md).
    """
    table = {}
    acc = 0.0
    for i in range(250):
        z = complex(i, 1.0) * 0.5
        table[i & 15] = abs(z)
        acc += table.get(i & 7, 0.0) + math.sqrt(i)
    return acc


class SpeedClock:
    """Context manager giving the wall and speed-weighted time of its body."""

    def __init__(self):
        self.wall_s = 0.0
        self.ref_s = 0.0
        self.probes = 0
        self._slice_start = 0.0
        self._probing = False

    def _close_slice(self):
        clock = time.perf_counter
        t0 = clock()
        probe()
        t1 = clock()
        slice_s = t0 - self._slice_start
        self.wall_s += slice_s
        self.ref_s += slice_s * REFERENCE_PROBE_S / (t1 - t0)
        self.probes += 1
        self._slice_start = t1

    def _on_alarm(self, signum, frame):
        # An alarm that lands inside a probe (the process was descheduled for
        # a whole interval) merges two slices rather than nesting probes.
        if self._probing:
            return
        self._probing = True
        try:
            self._close_slice()
        finally:
            self._probing = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._slice_start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._close_slice()  # the last, partial slice
        return False
