"""Spans around the simulator's layer boundaries, recorded from outside.

A traced run patches the public functions that ``fso_sim.engine`` calls into
the other modules, at the names where their callers look them up, and
records one span per call: its name, start, end, parent span and tick
phase. Spans stay in memory as parallel arrays (a traced run of
``promotion_churn`` makes about 600 thousand) and are folded into per-layer
totals when the run ends. Every original is restored on leaving :func:`patched`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Iterator

from fso_sim import canon, engine
from fso_sim.holarchy import Holarchy, Registry

# (owner, attribute, span name): each owner is where the caller looks the
# name up, so the engine's calls and canon's calls into activation are seen
TARGETS: tuple[tuple[object, str, str], ...] = (
    (engine, "resolve_request", "canon.resolve"),
    (engine, "publish", "canon.publish"),
    (engine, "form_son", "canon.form_son"),
    (engine, "dissolve_son", "canon.dissolve_son"),
    (engine, "record_outcome", "evolution.record_outcome"),
    (engine, "maybe_permanentify", "evolution.permanentify"),
    (engine, "maybe_prune", "evolution.prune"),
    (engine, "report", "engine.report"),
    (engine, "sample_arrivals", "environment.sample_arrivals"),
    (engine, "build_holarchy", "holarchy.build"),
    (engine, "register_initial_services", "holarchy.register_initial_services"),
    (canon, "enroll", "activation.enroll"),
    (canon, "release", "activation.release"),
    (Holarchy, "subtree_atoms", "holarchy.subtree_atoms"),
    (Holarchy, "chain_to_root", "holarchy.chain_to_root"),
    (Registry, "topics_present", "holarchy.topics_present"),
)

# engine functions that mark the tick phase of the calls made below them
PHASE_OF_FRAME = {
    "_phase_dissolve": "dissolve",
    "_phase_arrivals": "arrivals",
    "_phase_resolve": "resolve",
    "_phase_retry": "retry",
    "_phase_evolution": "evolution",
    "__init__": "setup",
    "scenario_from_dict": "load",
    "run": "report",
}
PHASES = ("load", "setup", "dissolve", "arrivals", "resolve", "retry", "evolution", "report", "other")
_PHASE_ID = {p: i for i, p in enumerate(PHASES)}
_ENGINE_FILE = engine.__file__


def _caller_phase() -> int:
    """Phase of the nearest enclosing engine frame, looked up from outside."""
    frame = sys._getframe(2)
    while frame is not None:
        if frame.f_code.co_filename == _ENGINE_FILE:
            phase = PHASE_OF_FRAME.get(frame.f_code.co_name)
            if phase is not None:
                return _PHASE_ID[phase]
        frame = frame.f_back
    return _PHASE_ID["other"]


class Tracer:
    """In-memory spans: parallel arrays indexed by span number."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.phase = array("b")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.name)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def add(self, name: str, start: int, end: int, parent: int = -1, phase: str = "other") -> int:
        """Append a finished span; returns its index."""
        self.name.append(self._name_id(name))
        self.parent.append(parent)
        self.phase.append(_PHASE_ID[phase])
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call, nested under any open span."""
        nid = self._name_id(name)
        clock = self.clock
        open_spans = self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.name)
            if open_spans:
                parent = open_spans[-1]
                phase = self.phase[parent]
            else:
                parent = -1
                phase = _caller_phase()
            self.name.append(nid)
            self.parent.append(parent)
            self.phase.append(phase)
            self.start.append(0)
            self.end.append(0)
            open_spans.append(index)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                open_spans.pop()
                self.start[index] = t0
                self.end[index] = t1

        traced.__wrapped_original__ = fn
        return traced

    # -- folding --------------------------------------------------------

    def durations(self) -> array:
        return array("q", (e - s for s, e in zip(self.start, self.end)))

    def self_times(self) -> array:
        """Each span's duration minus the durations of its direct children."""
        out = self.durations()
        for i, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[i] - self.start[i]
        return out

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name: calls, total and self nanoseconds."""
        selfs = self.self_times()
        out = {n: {"calls": 0, "total_ns": 0, "self_ns": 0} for n in self.names}
        for i, nid in enumerate(self.name):
            entry = out[self.names[nid]]
            entry["calls"] += 1
            entry["total_ns"] += self.end[i] - self.start[i]
            entry["self_ns"] += selfs[i]
        return out

    def top_level_ns(self, lo: int = 0) -> int:
        """Time covered by spans from ``lo`` on that have no parent span."""
        return sum(self.end[i] - self.start[i] for i in range(lo, len(self)) if self.parent[i] < 0)

    def phase_ns(self) -> dict[str, int]:
        """Time in top-level spans, split by the tick phase that made them."""
        out = dict.fromkeys(PHASES, 0)
        for i, p in enumerate(self.parent):
            if p < 0:
                out[PHASES[self.phase[i]]] += self.end[i] - self.start[i]
        return out

    def child_ns(self, parent: str, child: str) -> int:
        """Time in spans ``child`` whose direct parent is a span ``parent``."""
        pid, cid = self._name_ids.get(parent), self._name_ids.get(child)
        return sum(
            self.end[i] - self.start[i]
            for i, p in enumerate(self.parent)
            if p >= 0 and self.name[i] == cid and self.name[p] == pid
        )

    def durations_of(self, name: str, lo: int = 0, hi: int | None = None) -> list[int]:
        """Durations of the spans ``name`` among spans [lo, hi)."""
        nid = self._name_ids.get(name)
        hi = len(self) if hi is None else hi
        return [self.end[i] - self.start[i] for i in range(lo, hi) if self.name[i] == nid]


@contextmanager
def patched(tracer: Tracer) -> Iterator[Tracer]:
    """Install the span wrappers for the duration of the block."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in TARGETS]
    try:
        for owner, attr, name in TARGETS:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr)))
        yield tracer
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


def installed() -> list[str]:
    """Names of targets that currently hold a span wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in TARGETS
        if hasattr(owner.__dict__[attr], "__wrapped_original__")
    ]
