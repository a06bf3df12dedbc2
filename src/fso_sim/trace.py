"""Trace records: their format, reader, writer and metrics fold.

A run turns a scenario into a stream of trace records, one JSON object per
line, so that a (scenario, seed) pair reproduces the same trace byte for
byte. Payload values are integers, the strings ``topic`` and ``outcome``,
the boolean ``final`` of ``RequestUnresolved``, and arrays of integers or of
``[actor, role]`` pairs. In memory an array is the tuple the engine already
holds, never a copy; on disk it is a JSON array, which :func:`parse_trace`
reads back as a list, so records compare with the ones written line for line
and :func:`report` folds either form.

While a run lasts, its trace is one flat list of values. Each record
extends it with its tick, kind and payload values in the order
:data:`TRACE_FIELDS` gives its keys, so a kind's record is
``2 + len(TRACE_FIELDS[kind])`` values wide. The list holds ints, strings,
booleans and the engine's own tuples, and no record, payload dict or row
tuple is kept while a run lasts. :func:`to_records` cuts the
:class:`TraceRecord` list out of it. Metrics come from one fold,
:func:`_fold_rows`, which steps through such a list by width and checks
nothing. A run passes it its own list; :func:`report` checks each record,
those read back from a file among them, and passes it their values.

The JSON hooks here serve the scenario loader too, so both readers refuse
an object that repeats a key and the non-standard tokens NaN, Infinity and
-Infinity. :func:`parse_trace` also refuses a number literal beyond a
float's range, such as ``1e400``, which JSON reads as infinity without a
token; a valid trace holds no literal with a fraction or an exponent, so
that hook never runs on one. This module imports nothing else from the
package.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Any, Iterable

# each kind's payload keys, in the order a trace list holds their values
# after a record's tick and kind; the kinds are this table's keys. Every
# value is an int, a str, a bool or an array of ints or [actor, role] pairs,
# never a float, so reading a valid trace calls no parse_float hook
TRACE_FIELDS: dict[str, tuple[str, ...]] = {
    "EventPublished": ("soc", "source", "topic"),
    "ActivityTriggered": ("activity", "request", "soc", "topic"),
    "ExceptionRaised": ("activity", "request", "from_soc", "to_soc", "hop", "missing"),
    "SonFormed": (
        "son",
        "request",
        "activity",
        "origin_soc",
        "resolved_soc",
        "members",
        "spanned_socs",
        "hop_count",
        "triggered_at",
        "dissolves_at",
        "l_size",
        "r_size",
    ),
    "SonDissolved": ("son", "activity", "outcome", "members", "l_size", "r_size"),
    "RequestUnresolved": ("activity", "request", "origin_soc", "attempt", "final", "missing", "triggered_at"),
    "Permanentified": ("soc", "parent", "members", "activity"),
    "Pruned": ("soc", "parent", "members"),
}
# a tuple, not a set or the dict's keys: parse_trace tests a line's kind with
# ``in``, and a hash-based test raises TypeError on an unhashable kind such as []
TRACE_KINDS = tuple(TRACE_FIELDS)


class MalformedTraceError(Exception):
    """A trace line is not a record, or a record does not fold into metrics."""


# what json.dumps builds afresh for every call with these arguments
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(slots=True)
class TraceRecord:
    """One line of a trace, as its readers see it (see the module docstring).

    A record is only read, never hashed (its payload is a dict, so it could
    not be): slotted rather than frozen, since a frozen field costs a call
    on every construction. The arrays of a record cut from a run's list are
    plain tuples shared with the engine's state, a parsed one's are lists,
    so the two compare equal only by :meth:`to_line`.
    """

    tick: int
    kind: str
    payload: dict[str, Any]

    def to_line(self) -> str:
        return _encode({"kind": self.kind, "payload": self.payload, "tick": self.tick})


@dataclass
class Metrics:
    events_published: int = 0
    sons_formed: int = 0
    mean_hop_count: float = 0.0
    mean_response_latency: float = 0.0
    unresolved_requests: int = 0
    permanentifications: int = 0
    prunings: int = 0
    final_partition_sizes: tuple[int, int] = (0, 0)

    def to_dict(self) -> dict[str, Any]:
        doc = asdict(self)
        doc["final_partition_sizes"] = dict(zip("LR", self.final_partition_sizes))
        return doc


def _reject_constant(token: str) -> float:
    raise ValueError(f"{token} is not a JSON number")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if math.isinf(value):
        raise ValueError(f"{literal} is beyond a float's range")
    return value


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """Build a JSON object, refusing one that repeats a key."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        # the first key, in document order, that occurs twice; counted once
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"duplicate key {next(k for k, _ in pairs if counts[k] > 1)!r}")
    return doc


def parse_trace(text: str) -> list[TraceRecord]:
    """Parse one record per line, skipping lines of only JSON whitespace.

    Only a line feed ends a line. A string may hold any other line break,
    such as U+2028, and the carriage return of a CRLF ending is JSON
    whitespace. Space, tab and carriage return are the only others, so a
    line of any other blank, such as U+00A0 or a form feed, is malformed.
    """
    records = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip(" \t\r"):
            continue
        try:
            doc = json.loads(
                line, parse_float=_finite_float, parse_constant=_reject_constant, object_pairs_hook=_unique_keys
            )
        except json.JSONDecodeError as exc:
            raise MalformedTraceError(f"line {lineno}: {exc.msg}") from None
        except (ValueError, RecursionError) as exc:
            raise MalformedTraceError(f"line {lineno}: {exc}") from None
        if not isinstance(doc, dict) or set(doc) != {"tick", "kind", "payload"}:
            raise MalformedTraceError(f"line {lineno}: expected keys tick, kind, payload")
        if doc["kind"] not in TRACE_KINDS:
            raise MalformedTraceError(f"line {lineno}: unknown kind {doc['kind']!r}")
        if isinstance(doc["tick"], bool) or not isinstance(doc["tick"], int) or doc["tick"] < 0:
            raise MalformedTraceError(f"line {lineno}: tick must be a non-negative integer")
        if not isinstance(doc["payload"], dict):
            raise MalformedTraceError(f"line {lineno}: payload must be an object")
        records.append(TraceRecord(tick=doc["tick"], kind=doc["kind"], payload=doc["payload"]))
    return records


def write_trace(records: Iterable[TraceRecord]) -> str:
    return "".join(r.to_line() + "\n" for r in records)


def _position(kind: str, key: str) -> int:
    """Where a record of ``kind`` holds the value of ``key``, counting from its tick."""
    return 2 + TRACE_FIELDS[kind].index(key)


# how many values of a trace list a record of each kind takes
_WIDTH = {kind: 2 + len(keys) for kind, keys in TRACE_FIELDS.items()}


def to_records(values: list[Any]) -> list[TraceRecord]:
    """Cut the records out of a trace list, afresh on each call."""
    fields, width = TRACE_FIELDS, _WIDTH
    records = []
    i, n = 0, len(values)
    while i < n:
        kind = values[i + 1]
        j = i + width[kind]
        records.append(TraceRecord(values[i], kind, dict(zip(fields[kind], values[i + 2 : j]))))
        i = j
    return records


# the fields the fold reads, by kind and key, each with the type a record
# must give it; report checks a record's fields in this order
_FOLDED: dict[tuple[str, str], type] = {
    ("SonFormed", "hop_count"): int,
    ("SonFormed", "triggered_at"): int,
    ("SonFormed", "l_size"): int,
    ("SonFormed", "r_size"): int,
    ("SonDissolved", "l_size"): int,
    ("SonDissolved", "r_size"): int,
    ("RequestUnresolved", "final"): bool,
}


def report(records: Iterable[TraceRecord]) -> Metrics:
    """Fold a trace into metrics: check each record, then pass their values
    to :func:`_fold_rows`, the fold that gives a run its own metrics.

    One pass over ``records``. A record is checked for exactly the fields
    the fold reads, in this order: its kind must be one of
    :data:`TRACE_KINDS`; a ``SonFormed`` record's ``hop_count`` and
    ``triggered_at``, then a ``SonFormed`` or ``SonDissolved`` record's
    ``l_size`` and ``r_size``, must be integers (True and False are not
    counts); a ``RequestUnresolved`` record's ``final`` must be True or
    False. A missing key among those, a field of the wrong type, an unknown
    kind and means too large for a float raise MalformedTraceError. The
    fold reads no other key, so a record may lack one.
    """
    # each kind's payload keys, and where its values hold each field the
    # fold reads, with that field's key and type
    specs = {
        kind: (keys, [(_position(kind, key), key, t) for (k, key), t in _FOLDED.items() if k == kind])
        for kind, keys in TRACE_FIELDS.items()
    }
    values: list[Any] = []
    for r in records:
        kind, p = r.kind, r.payload
        try:
            keys, checks = specs[kind]
        except (KeyError, TypeError):
            raise MalformedTraceError(f"unknown kind {kind!r}") from None
        row = (r.tick, kind, *map(p.get, keys))
        for i, key, t in checks:
            if type(row[i]) is not t:
                if key not in p:
                    raise MalformedTraceError(f"{kind} record lacks key {key!r}")
                word = "boolean" if t is bool else "integer"
                raise MalformedTraceError(f"{kind} record has non-{word} {key} {row[i]!r}")
        values += row
    return _fold_rows(values)


def _fold_rows(values: list[Any]) -> Metrics:
    """The one metrics fold over a trace list (see the module docstring).

    Means too large for a float, which only a record read back can give,
    raise MalformedTraceError.
    """
    published = formed = unresolved = promoted = pruned = 0
    hop_sum = latency_sum = 0
    # offsets from a record's kind and each kind's width, as locals: a dict
    # read per record costs the fold a third more
    hop_count, triggered_at = _position("SonFormed", "hop_count") - 1, _position("SonFormed", "triggered_at") - 1
    final = _position("RequestUnresolved", "final") - 1
    w_raised, w_published, w_triggered, w_formed, w_dissolved, w_unresolved, w_promoted, w_pruned = map(
        _WIDTH.get,
        ("ExceptionRaised", "EventPublished", "ActivityTriggered", "SonFormed")
        + ("SonDissolved", "RequestUnresolved", "Permanentified", "Pruned"),
    )
    # the kind's index of the last record that carries the partition sizes
    sized = -1
    # the index of a record's kind, one past its tick; common kinds go first
    i, n = 1, len(values)
    while i < n:
        kind = values[i]
        if kind == "ExceptionRaised":
            i += w_raised
        elif kind == "EventPublished":
            published += 1
            i += w_published
        elif kind == "ActivityTriggered":
            i += w_triggered
        elif kind == "SonFormed":
            formed += 1
            hop_sum += values[i + hop_count]
            latency_sum += values[i - 1] - values[i + triggered_at]
            sized = i
            i += w_formed
        elif kind == "SonDissolved":
            sized = i
            i += w_dissolved
        elif kind == "RequestUnresolved":
            if values[i + final]:
                unresolved += 1
            i += w_unresolved
        elif kind == "Permanentified":
            promoted += 1
            i += w_promoted
        else:  # Pruned, the one kind left
            pruned += 1
            i += w_pruned
    mean_hop_count = mean_response_latency = 0.0
    if formed:
        try:
            mean_hop_count = hop_sum / formed
            mean_response_latency = latency_sum / formed
        except OverflowError:
            raise MalformedTraceError("a mean hop count or latency does not fit a float") from None
    sizes = (0, 0)
    if sized >= 0:
        kind = values[sized]
        sizes = (values[sized - 1 + _position(kind, "l_size")], values[sized - 1 + _position(kind, "r_size")])
    return Metrics(
        events_published=published,
        sons_formed=formed,
        mean_hop_count=mean_hop_count,
        mean_response_latency=mean_response_latency,
        unresolved_requests=unresolved,
        permanentifications=promoted,
        prunings=pruned,
        final_partition_sizes=sizes,
    )
