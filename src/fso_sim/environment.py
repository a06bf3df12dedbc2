"""Event sources: where the outside world pokes the holarchy.

A scenario declares sources; each source injects items with one topic into
one SoC's registry, driven by a point process on the integer tick line.
Poisson sources draw exponential gaps and snap them to the nearest tick
(never below one); periodic and scripted sources are exact.

Randomness comes from an explicit splitmix64 generator so that runs are
reproducible bit for bit across platforms and Python versions. Every source
derives its own independent stream from the scenario seed, which keeps the
arrival pattern of one source stable when another is added or removed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, inf, log1p
from typing import Iterator, NamedTuple

from .holarchy import HolonId, InformationItem, LogicalTime

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Rng:
    """splitmix64 stream; remembers its seed so it can be treated as a value."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def random(self) -> float:
        # 53 bit mantissa, uniform in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def child(self, index: int) -> "Rng":
        """An independent stream derived from this rng's seed, not its state."""
        return Rng(_mix((self.seed + (index + 1) * _GOLDEN) & _MASK))


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

    def arrivals(self, rng: Rng) -> Iterator[LogicalTime]:
        # each gap is -log1p(-rng.random()) / rate, with the splitmix64 step
        # unrolled here because the calls cost more than the arithmetic; rng
        # advances exactly as those calls would advance it
        rate = self.rate
        state = rng._state
        t = 0
        while True:
            state = (state + _GOLDEN) & _MASK
            rng._state = state
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

    def arrivals(self, rng: Rng) -> Iterator[LogicalTime]:
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

    def arrivals(self, rng: Rng) -> Iterator[LogicalTime]:
        yield from self.times


Process = PoissonProcess | PeriodicProcess | ScriptedProcess


@dataclass(frozen=True)
class EventSource:
    """One topic injected into one SoC, driven by one point process."""

    topic: str
    injection_soc: HolonId
    process: Process


@dataclass(frozen=True)
class EnvironmentSpec:
    sources: tuple[EventSource, ...]


class Arrival(NamedTuple):
    """An item due at ``time`` from the source declared at ``source_index``.

    A tuple, so arrivals order by (time, source index) with no sort key. Two
    arrivals that tie on both carry equal items, so the item never decides.
    """

    time: LogicalTime
    source_index: int
    item: InformationItem


def source_stream(seed: int, index: int) -> Rng:
    """The rng governing source ``index`` under scenario ``seed``."""
    return Rng(seed).child(index)


def sample_arrivals(
    spec: EnvironmentSpec,
    window: tuple[LogicalTime, LogicalTime],
    seed: int,
) -> list[Arrival]:
    """All arrivals with t0 <= time < t1, merged across sources.

    Sorted by (time, source index): simultaneous arrivals keep the order
    sources are declared in, which pins down the whole run.
    """
    t0, t1 = window
    out: list[Arrival] = []
    for index, source in enumerate(spec.sources):
        topic, soc = source.topic, source.injection_soc
        for t in source.process.arrivals(source_stream(seed, index)):
            if t >= t1:
                break
            if t >= t0:
                out.append(Arrival(t, index, InformationItem(topic, soc, t)))
    out.sort()
    return out

