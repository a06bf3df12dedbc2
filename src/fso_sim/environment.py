"""Event sources: where the outside world pokes the holarchy.

A scenario declares sources; each source injects items with one topic into
one SoC's registry, driven by a point process on the integer tick line.
Poisson sources draw exponential gaps and snap them to the nearest tick
(never below one); periodic and scripted sources are exact.

Randomness comes from splitmix64, written out in integer arithmetic, so
that runs are reproducible bit for bit across platforms and Python versions.
Each source draws from its own stream: :func:`source_state` mixes the
scenario seed with the source's index into the stream's starting state, and
the process's ``arrivals`` steps it. A source's arrival pattern therefore
stays the same when another source is added or removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import takewhile
from math import floor, inf, log1p
from operator import gt
from typing import Iterator

from .holarchy import HolonId, InformationItem, LogicalTime

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


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

    def arrivals(self, state: int) -> Iterator[LogicalTime]:
        # each gap is -log1p(-u) / rate, u the next output of the splitmix64
        # stream at ``state`` cut to 53 bits, uniform in [0, 1); the step is
        # unrolled here because a call to _mix costs more than its arithmetic
        rate = self.rate
        t = 0
        while True:
            state = (state + _GOLDEN) & _MASK
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            # rate > 0, so a gap is never NaN and only an overflow ends the stream
            gap = -log1p(-(((z ^ (z >> 31)) >> 11) * 2.0**-53)) / rate
            if gap == inf:
                return
            t += floor(gap + 0.5) or 1
            yield t


@dataclass(frozen=True)
class PeriodicProcess:
    period: int
    offset: int = 0

    def __post_init__(self) -> None:
        if self.period < 1:
            raise ValueError("period must be at least 1")
        if self.offset < 0:
            raise ValueError("offset must not be negative")

    def arrivals(self, state: int) -> Iterator[LogicalTime]:
        t = self.offset
        while True:
            yield t
            t += self.period


@dataclass(frozen=True)
class ScriptedProcess:
    """Arrivals exactly at the listed ticks."""

    times: tuple[LogicalTime, ...]

    def __post_init__(self) -> None:
        if any(t < 0 for t in self.times):
            raise ValueError("scripted times must not be negative")
        if list(self.times) != sorted(self.times):
            raise ValueError("scripted times must be ascending")

    def arrivals(self, state: int) -> Iterator[LogicalTime]:
        yield from self.times


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

    Every item is built here once, when a run is set up, with
    ``tuple.__new__``, as ``InformationItem._make`` does, which skips the
    NamedTuple's Python-level constructor: an item costs one resumption of
    its stream and no call of its own.
    """
    before_end = partial(gt, horizon)
    new = tuple.__new__
    out: list[InformationItem] = []
    for index, source in enumerate(sources):
        topic, soc = source.topic, source.injection_soc
        stream = takewhile(before_end, source.process.arrivals(source_state(seed, index)))
        out += [new(InformationItem, (t, index, soc, topic)) for t in stream]
    out.sort()
    return out
