"""Host-speed calibration: a fixed kernel timed next to every measurement.

The benchmark's host is a few shared vCPUs whose speed drifts by tens
of per cent over minutes, and a drift moves every pass and set-up of a
run together.  ``run.py`` times this kernel, which uses nothing under
``src/``, before and after every timed pass and set-up probe, and
rescales each measured time to the reference machine's speed:
``seconds * REFERENCE_S / kernel seconds``.  A change to the program
moves the rescaled time; a change in the host's speed moves the kernel
as well and cancels out.  The kernel mixes interpreter work (dicts,
tuples, a keyed sort) with array work (sort, scatter-add, gather,
elementwise) in about the proportions the workloads do.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: Median kernel seconds on the reference machine (README), so rescaled
#: times read as seconds on that machine.
REFERENCE_S = 0.1
REPEATS = 5

_SIZE = 500_000
_BINS = 1000
_inputs = None


def _arrays():
    global _inputs
    if _inputs is None:
        rng = np.random.default_rng(2002)
        _inputs = (rng.random(_SIZE), rng.integers(0, _BINS, _SIZE))
    return _inputs


def kernel() -> int:
    """The fixed work; returns a checksum so none of it can be skipped."""
    values, keys = _arrays()
    table = {}
    for i in range(40_000):
        key = (i * 2654435761) & 1023
        table[key] = table.get(key, 0) + i
    ranked = sorted(table.items(), key=lambda item: (item[1] % 977, item[0]))
    order = np.argsort(values, kind="stable")
    sums = np.zeros(_BINS)
    np.add.at(sums, keys, values)
    scaled = values[order] * 1.5 + np.sqrt(values)
    return ranked[0][0] + int(np.argmax(sums)) + int(scaled.argmin())


def calibrate() -> float:
    """Seconds the kernel takes now: the median of ``REPEATS`` runs,
    with the collector off, so one interruption does not count."""
    _arrays()
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)
