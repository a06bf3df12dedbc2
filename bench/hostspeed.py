"""Host-speed calibration: timings expressed in seconds of a reference host.

The benchmark host is a shared VM whose speed drifts by 20-70% over seconds
to minutes, on both vCPUs alike, with no steal time recorded: a neighbour
takes the caches and execution units, not the CPU. Raw host seconds from two
runs of the same code therefore differ by more than any bound a speed-up
could be judged against. So the timed runs interleave a fixed pure-Python
kernel (a dict-and-list loop, object allocation, frozenset unions, a sort
and a JSON dump; nothing from ``fso_sim``) every
``EVERY_NS`` of stepping, and scale each tick's host time by

    REFERENCE_NS / (median kernel time around that tick)

so a tick taken while the host runs slow is scaled down by as much as the
kernel slowed down next to it. The kernel is timed with the garbage collector
off, so it neither triggers nor absorbs the workload's collections.

``REFERENCE_NS`` is a round figure within the range of the kernel's median
on the host the recorded numbers come from (a 2-vCPU Intel Xeon VM, Python
3.11.7; 0.31-0.49 ms over one minute). It only sets the scale. The kernel and the constant must never change: every recorded
number is in their units.
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from typing import Sequence

REFERENCE_NS = 400_000
EVERY_NS = 10_000_000
# kernel samples on each side of a tick that its scale is taken over
HALF_WINDOW = 2


class _Rec:
    __slots__ = ("a", "b", "tags")

    def __init__(self, a: int, b: int, tags: frozenset) -> None:
        self.a = a
        self.b = b
        self.tags = tags


def kernel() -> int:
    """A fixed slice of interpreter work, 0.3-0.5 ms on the recording host."""
    counts: dict[int, int] = {}
    recent: list[tuple[int, int]] = []
    for i in range(800):
        k = i & 63
        counts[k] = counts.get(k, 0) + 1
        recent.append((k, i))
        if len(recent) > 32:
            recent = recent[16:]
    recs = [_Rec(i, i * 7 % 13, frozenset((i & 15, i & 7))) for i in range(150)]
    index: dict[tuple[int, int], list[_Rec]] = {}
    for r in recs:
        index.setdefault((r.b, r.a & 3), []).append(r)
    tags: frozenset = frozenset()
    for r in recs:
        tags = tags | r.tags
    ordered = sorted(recs, key=lambda r: (r.b, -r.a))
    return len(json.dumps([[r.a, r.b] for r in ordered[:50]])) + len(tags) + len(index) + len(recent)


def sample() -> int:
    """Host nanoseconds for one kernel call, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter_ns()
        kernel()
        return time.perf_counter_ns() - t0
    finally:
        if enabled:
            gc.enable()


def scale_of(samples: Sequence[int]) -> float:
    """The factor that turns host time into reference time, from kernel samples."""
    return REFERENCE_NS / statistics.median(samples)


def tick_scales(ticks: int, at: Sequence[int], samples: Sequence[int]) -> list[float]:
    """One scale per tick, from kernel samples taken while stepping.

    ``samples[i]`` was taken once ``at[i]`` ticks had run; ``at`` is
    non-decreasing and its last entry is ``ticks``. Tick ``t`` takes its
    scale from the first sample after it, smoothed over ``HALF_WINDOW``
    samples on each side.
    """
    if not at or at[-1] != ticks:
        raise ValueError("the last kernel sample must follow the last tick")
    smoothed = [scale_of(samples[max(0, i - HALF_WINDOW) : i + HALF_WINDOW + 1]) for i in range(len(samples))]
    scales = []
    i = 0
    for t in range(ticks):
        while at[i] <= t:
            i += 1
        scales.append(smoothed[i])
    return scales
