"""Host-speed calibration.

The sandbox this benchmark runs in changes speed under it: the same
fixed computation takes between 1x and 2x as long from one ten-second
window to the next, and process CPU time moves with wall time, so the
change is in how fast the virtual CPU runs, not in how often it is
pre-empted.  No run length that fits the time budget averages that out.

So every timed slice is bracketed by slices of a fixed reference
computation (:func:`unit`), and timings are reported **at reference
host speed**: a slice during which the reference computation ran 1.3x
slower than :data:`REFERENCE_UNIT_S` has its durations divided, and its
rates multiplied, by 1.3.  Open-loop arrival rates are scaled the same
way, so the offered load is fixed relative to the host's speed.  Both
sides of any comparison go through the same normalisation.
``harness.host_speed`` reports the factor that was applied.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_UNIT_S", "SLICE_S", "unit", "host_speed", "Bracket"]

#: seconds one :func:`unit` takes on the reference host (this sandbox
#: on a quiet stretch).  Only a scale: it moves every normalised timing
#: by the same factor.
REFERENCE_UNIT_S = 0.15e-3

#: length of one calibration slice (longer around longer timed slices)
SLICE_S = 0.06

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((256, 176)).astype(np.float32)
_VECTOR = _MATRIX[0].copy()
_IDS = _RNG.integers(256, size=64)


def unit() -> float:
    """One unit of reference work: the instruction mix of the search
    paths — interpreter-bound loops over small NumPy kernels (GEMV,
    gather, partial sort) and dict/list traffic."""
    total = 0.0
    seen: dict[int, float] = {}
    for _ in range(12):
        scores = _MATRIX @ _VECTOR
        picked = scores[_IDS]
        top = np.argpartition(picked, 54)[54:]
        total += float(picked[top].sum())
        for j in top.tolist():
            seen[j] = total
        heap = sorted(seen.items(), key=lambda kv: -kv[1])[:8]
        total += len(heap)
    return total


def host_speed(seconds: float = SLICE_S) -> float:
    """Current host speed relative to the reference host (1.0 = as
    fast, 0.5 = half as fast), from *seconds* of reference work."""
    clock = time.perf_counter
    units = 0
    begin = clock()
    deadline = begin + seconds
    now = begin
    while now < deadline:
        unit()
        units += 1
        now = clock()
    return REFERENCE_UNIT_S / ((now - begin) / units)


class Bracket:
    """Host speed around consecutive timed slices: ``next()`` measures
    once more and returns the mean of the speeds before and after the
    slice that just ended."""

    def __init__(self, slice_s: float = SLICE_S) -> None:
        self.slice_s = slice_s
        #: the latest measurement: the speed just before the next slice
        self.before = host_speed(slice_s)

    def next(self) -> float:
        after = host_speed(self.slice_s)
        speed = 0.5 * (self.before + after)
        self.before = after
        return speed
