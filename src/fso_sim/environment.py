"""Event sources: where the outside world pokes the holarchy.

A scenario declares sources; each source injects items with one topic into
one SoC's registry, driven by a point process on the integer tick line.
Poisson sources draw exponential gaps and snap them to the nearest tick
(never below one); periodic and scripted sources are exact.

Randomness comes from splitmix64, written out in integer arithmetic, so
that runs are reproducible bit for bit across platforms and Python versions.
Each source draws from its own stream: :func:`source_state` mixes the
scenario seed with the source's index into the stream's starting state. A
source's arrival pattern therefore stays the same when another source is
added or removed.

Each process lists its arrivals before a horizon. A Poisson stream is
drawn a chunk of steps at a time, one call of :func:`_outputs` per chunk,
which computes the chunk's splitmix64 steps in a handful of operations on
one Python int. Each step gets its own 128-bit lane of that int and every
lane is cut back to 64 bits before it is multiplied, so no lane's product
reaches its neighbour; each lane thus holds exactly the value the step
computes alone, and the stream's outputs, gaps and arrival times are the
ones a step-by-step draw gives.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass
from itertools import repeat
from math import exp, expm1, floor, log1p, sqrt
from operator import itemgetter

from .holarchy import HolonId, InformationItem, LogicalTime

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# the most splitmix64 steps one call of _outputs computes, which keeps its
# ints near 8 KiB
_LANES = 512
# every lane's low 64 bits
_LANE_MASK = int.from_bytes(_MASK.to_bytes(16, "little") * _LANES, "little")
# lane j holds (j + 1) * GOLDEN mod 2**64, the j-th lane's step past its base
_STEPS = int.from_bytes(
    b"".join(((j * _GOLDEN) & _MASK).to_bytes(16, "little") for j in range(1, _LANES + 1)), "little"
)


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _outputs(state: int, n: int) -> memoryview:
    """The outputs, cut to 53 bits, of the ``n <= _LANES`` splitmix64 steps after ``state``.

    Step k mixes ``state + k * GOLDEN``. The steps go into consecutive
    128-bit lanes of one int and the mix runs on the whole int: a shift
    carries bits of the next lane only into a lane's top 64 bits, which the
    mask clears before each multiply, so each lane's 64-by-64-bit product
    stays within its lane.
    """
    # lane k - 1 is to hold state + k * GOLDEN once _STEPS is added
    z = (int.from_bytes(state.to_bytes(16, "little") * n, "little") + (_STEPS & ((1 << 128 * n) - 1))) & _LANE_MASK
    z = ((z ^ (z >> 30)) & _LANE_MASK) * 0xBF58476D1CE4E5B9 & _LANE_MASK
    z = ((z ^ (z >> 27)) & _LANE_MASK) * 0x94D049BB133111EB & _LANE_MASK
    # the shift brings the next lane's bits no lower than bit 97, so once
    # shifted by 11 each lane's low word is its output's top 53 bits
    z = (z ^ (z >> 31)) >> 11
    # in the host's byte order each word reads right; a big-endian host
    # gets the words last first, so a lane's low word is the later one
    words = memoryview(z.to_bytes(16 * n, sys.byteorder)).cast("Q")
    return words[::-2] if sys.byteorder == "big" else words[::2]


@dataclass(frozen=True)
class PoissonProcess:
    """Exponential gaps at the given rate, snapped to whole ticks (min 1).

    A rate so small that a gap overflows to infinity ends the stream: no
    arrival can come before any finite horizon.
    """

    rate: float

    def __post_init__(self) -> None:
        if not self.rate > 0:
            raise ValueError("poisson rate must be positive")

    def arrivals(self, state: int, horizon: LogicalTime) -> list[LogicalTime]:
        """The times before ``horizon`` of the stream at ``state``, drawn a chunk of steps per :func:`_outputs` call.

        Each chunk is sized by :meth:`_chunk` to the ticks left, and the
        stream goes on from its state after the chunk while it has not
        passed the horizon.
        """
        neg_rate = -self.rate
        times: list[LogicalTime] = []
        append = times.append
        t = 0
        while True:
            n = self._chunk(horizon - t)
            try:
                for z in _outputs(state, n):
                    # the gap -log1p(-u) / rate for u = z * 2**-53 uniform in
                    # [0, 1), with its two signs moved into constants: the same float
                    t += floor(log1p(z * -(2.0**-53)) / neg_rate + 0.5) or 1
                    if t >= horizon:
                        return times
                    append(t)
            except OverflowError:
                # floor of an infinite gap; rate > 0, so a gap is never NaN
                return times
            state = (state + n * _GOLDEN) & _MASK

    def _chunk(self, ticks: int) -> int:
        """How many steps to draw for ``ticks`` more ticks, at most ``_LANES``.

        That is the arrivals expected, plus two standard deviations and
        four, so that few streams need a second chunk. Every factor is
        bounded, whatever the rate and horizon, before ``int`` is taken.
        """
        rate = self.rate
        # arrivals per tick, 1 / the mean snapped gap h / p + 1 - h, for
        # p = 1 - exp(-rate) and h = exp(-rate / 2): at most 1
        p, h = -expm1(-rate), exp(-rate / 2)
        expected = p / (h + (1 - h) * p) * min(max(ticks, 0), 1 << 53)
        return int(min(expected + 2 * sqrt(expected) + 4, _LANES))


@dataclass(frozen=True)
class PeriodicProcess:
    period: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be at least 1")
        if self.offset < 0:
            raise ValueError("offset must not be negative")

    def arrivals(self, state: int, horizon: LogicalTime) -> range:
        return range(self.offset, horizon, self.period)


@dataclass(frozen=True)
class ScriptedProcess:
    """Arrivals exactly at the listed ticks."""

    times: tuple[LogicalTime, ...]

    def __post_init__(self) -> None:
        if any(t < 0 for t in self.times):
            raise ValueError("scripted times must not be negative")
        if list(self.times) != sorted(self.times):
            raise ValueError("scripted times must be ascending")

    def arrivals(self, state: int, horizon: LogicalTime) -> tuple[LogicalTime, ...]:
        return self.times[: bisect_left(self.times, horizon)]


Process = PoissonProcess | PeriodicProcess | ScriptedProcess


@dataclass(frozen=True)
class EventSource:
    """One topic injected into one SoC, driven by one point process."""

    topic: str
    injection_soc: HolonId
    process: Process


def source_state(seed: int, index: int) -> int:
    """The splitmix64 state source ``index`` starts from under scenario ``seed``."""
    return _mix(((seed & _MASK) + (index + 1) * _GOLDEN) & _MASK)


def sample_arrivals(sources: tuple[EventSource, ...], horizon: LogicalTime, seed: int) -> list[InformationItem]:
    """All items due before ``horizon``, merged across sources.

    No process yields a negative time, so that is every item due at
    0 <= time < horizon, and none when ``horizon`` is 0 or less.

    Sorted by (time, source index): simultaneous arrivals keep the order
    sources are declared in, which pins down the whole run.

    Each source's times come from its process's ``arrivals``. The items are
    built source by source with ``tuple.__new__``, as
    ``InformationItem._make`` does, and ``map``, so that no Python-level
    call is made per item. The sort is stable and keyed on the time alone,
    so items due on one tick keep the source order they were built in.
    """
    new = tuple.__new__
    out: list[InformationItem] = []
    for index, source in enumerate(sources):
        times = source.process.arrivals(source_state(seed, index), horizon)
        rows = zip(times, repeat(index), repeat(source.injection_soc), repeat(source.topic))
        out += map(new, repeat(InformationItem), rows)
    out.sort(key=itemgetter(0))
    return out
