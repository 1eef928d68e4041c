"""The host's speed at a moment, read from a fixed calibration kernel.

This host's speed changes in phases of tenths of a second to minutes:
the same pure-Python work takes up to 1.6 times as long in a slow phase,
and a whole 40-second invocation can fall into one.  So the worker times
:func:`calibrate` next to every piece of measured work, and reports each
piece at the reference speed: its wall time times
``REFERENCE_S / calibration time`` (``measure.at_reference``).

The kernel is a heap of event-like tuples, the shape of the simulator's
hot loop, and it is part of the benchmark, not of the program: a change
to the program leaves it alone.  Keep it fixed; changing it or
``REFERENCE_S`` rescales every host timing the benchmark reports.
"""

from __future__ import annotations

import gc
import time
from heapq import heappop, heappush

#: Calibration time that defines the reference speed: about the kernel's
#: time in a fast phase of a 2-vCPU x86_64 virtual machine (Python 3.11).
REFERENCE_S = 0.002
#: Kernel repetitions per reading; the fastest one is the reading.
REPEATS = 2
#: Events pushed and popped by one repetition.
EVENTS = 2000


class _Item:
    __slots__ = ("key", "payload")

    def __init__(self, key, payload):
        self.key = key
        self.payload = payload


def calibrate() -> float:
    """Wall time of the calibration kernel now, in seconds.

    The cyclic garbage collector is off while it runs, so the kernel never
    pays for a collection of the simulation's heap, nor moves one.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            heap: list = []
            for i in range(EVENTS):
                heappush(heap, (i * 7919 % 1000, i, _Item(i, [i])))
            while heap:
                heappop(heap)
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()
