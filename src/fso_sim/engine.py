"""Scenario files, the simulation loop, traces, and metrics.

A scenario is a strict UTF-8 JSON document in the format of the shipped
``schema/scenario.schema.json``. The loader compiles that schema once, at
import, into its own checker, so no third-party package is needed; integers
must be written without a fraction (``1``, not ``1.0``). It then checks by
hand that role ids are below the number of roles, that activity ids are
unique and that scripted times ascend. :class:`Scenario` itself checks the
rest (see there), once, when it is made, whether by the loader or by hand,
the holarchy's structure among it. A :class:`Simulation` builds its
holarchy from what that check kept and checks nothing again but the range
of a ``horizon`` it is given. The simulator turns a scenario into a
stream of trace records, one JSON object per line, so that a (scenario,
seed) pair reproduces the same trace byte for byte. Payload values are
integers, the strings ``topic`` and ``outcome``, the boolean ``final`` of
``RequestUnresolved``, and arrays of integers or of ``[actor, role]`` pairs.
In memory an array is the tuple the engine already holds, never a copy; on
disk it is a JSON array, which :func:`parse_trace` reads back as a list, so
records compare with the ones written line for line and :func:`report` folds
either form.

Within a tick the order is fixed: due overlays dissolve, environment
arrivals are published, triggered activities resolve in activity id order
(earlier resolutions see the actors consumed by previous ones), parked
requests retry if a dissolution freed actors this tick, and evolution
promotes or prunes. Each phase runs only when it has work; evolution runs
only when a promoted signature is to be re-checked for pruning or a ready
signature's member set is free (:func:`~fso_sim.evolution.promotion_due`),
so a tick with no dissolve, no arrival and no evolution due costs a few
comparisons. :meth:`Simulation.step` is exactly one tick;
:meth:`Simulation.run` is one loop over due ticks, which are the arrival
and dissolve ticks and the tick after one that freed a ready signature's
member set, by a prune or by a graft that relisted its anchor, and it
jumps the clock over the rest. The same loop drains past the horizon, so
every formation has its dissolution on record. Drain ticks are full ticks:
parked requests retry on them, so a SON can form at or after the horizon
and is drained in turn, and a prune or a graft on them can free a
signature for promotion on the next tick.

A staffing request is one record from its trigger to its close, and
:meth:`Simulation._attempt` is the one place an attempt at it is settled,
in the resolve phase and the retry phase alike. Attempt 0 comes on the
trigger tick. Retries come only on later ticks on which an overlay
dissolved, at most ``retry_bound`` of them. Each failed attempt writes a
``RequestUnresolved`` record with its ``attempt`` number and whether it
was ``final``, and a request still parked when the run ends gets one more
record with ``final`` true.

The trace is one flat list of values. Each emission site extends it,
through no helper frame, with a record's tick, kind and payload values in
the order :data:`TRACE_FIELDS` gives its keys, so a kind's record is
``2 + len(TRACE_FIELDS[kind])`` values wide; only ``RequestUnresolved``,
which an attempt and the close both write, has a method of its own. The
list holds ints, strings, booleans and the engine's own tuples, and no
record, payload dict or row tuple is kept while a run lasts.
:attr:`Simulation.trace` cuts the :class:`TraceRecord` list out of it when
it is read. Metrics come from one fold, :func:`_fold_rows`, which steps
through such a list by width and checks nothing. :meth:`Simulation.run`
passes it the engine's list; :func:`report` checks each record, those read
back from a file among them, and passes it their values.

Staffing reads only the activity, its start SoC, the actors under each SoC
on its chain, the topics of their registries and which actors its scans
read are idle, so each attempt makes one call to
:func:`~fso_sim.canon.resolve_request` with the simulation's memo, which
answers a repeat from memory (see there). A replay writes the same records
and, when it fails, spends a retry. The memo is emptied when a publish
brings a registry a topic it did not hold, and only then: a start SoC is a
scenario SoC, and evolution neither puts a promoted SoC on a chain nor
changes the actors under a scenario SoC. With debug enabled every attempt
is also resolved afresh without the memo, and a different answer raises
InvariantViolationError.
"""

from __future__ import annotations

import json
import math
import operator
import os
import reprlib
from collections import Counter
from dataclasses import asdict, dataclass
from importlib import resources
from typing import Any, Callable, Iterable, NoReturn

from . import canon
from .activation import check_partition, initial_state
from .canon import (
    ActivityTable,
    Memo,
    ResponseActivity,
    Son,
    form_son,
    dissolve_son,
    publish,
    resolve_request,
)
from .environment import (
    EventSource,
    PeriodicProcess,
    PoissonProcess,
    Process,
    ScriptedProcess,
    sample_arrivals,
)
from .evolution import (
    EvolutionPolicy,
    ExperienceLedger,
    FailureWindow,
    maybe_permanentify,
    maybe_prune,
    promotion_due,
    ready_free,
    record_outcome,
)
from .holarchy import (
    Holarchy,
    Holon,
    HolonKind,
    HolonOrigin,
    InformationItem,
    RoleId,
    ViolationError,
    build_holarchy,
    register_initial_services,
    validate,
)

DEBUG_ENV_VAR = "FSO_SIM_DEBUG"

# each kind's payload keys, in the order a trace list holds their values
# after a record's tick and kind; the kinds are this table's keys
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


class ParseError(Exception):
    """The scenario file is not valid JSON."""


class ValidationError(Exception):
    """The scenario is well-formed JSON but violates the format."""


class MalformedTraceError(Exception):
    """A trace line is not a record, or a record does not fold into metrics."""


class InvariantViolationError(Exception):
    """A runtime self-check failed; the simulation state is corrupt."""


@dataclass(frozen=True)
class Scenario:
    """Everything one run needs, checked once, when it is made.

    Construction checks, in this order, that ``horizon``, ``seed`` and
    ``retry_bound`` lie in the schema's ranges, that each source's topic is
    used by some activity, and that each failure window stops no earlier
    than it starts and names an existing activity, raising ValidationError
    in the loader's words. It then checks the holons against the
    structural rules of :func:`~fso_sim.holarchy.validate`, raising the
    first fault as :class:`~fso_sim.holarchy.ViolationError`, and that each
    source injects into an existing composite, raising ValidationError
    again. The checked holon table, parent map and root are kept as
    plain attributes, not dataclass fields, the way
    :class:`~fso_sim.canon.ActivityTable` keeps its topic lookup; each
    :class:`Simulation` builds its own holarchy from copies of them.
    """

    role_names: tuple[str, ...]
    holons: tuple[Holon, ...]
    activities: ActivityTable
    sources: tuple[EventSource, ...]
    policy: EvolutionPolicy
    horizon: int
    seed: int
    retry_bound: int

    def __post_init__(self) -> None:
        for key in _NUMBERS:
            _check_number(key, getattr(self, key))
        for i, src in enumerate(self.sources):
            if src.topic not in self.activities.known_topics:
                _fail(f"environment[{i}].topic", f"topic {src.topic!r} is not used by any activity")
        ids = {a.id for a in self.activities.activities}
        for i, w in enumerate(self.policy.failure_injections):
            if w.stop < w.start:
                _fail(f"policy.failure_injections[{i}]", f"stop {w.stop} precedes start {w.start}")
            if w.activity not in ids:
                _fail(f"policy.failure_injections[{i}].activity", f"no activity with id {w.activity}")
        h = build_holarchy(self.holons, self.roles)
        for i, src in enumerate(self.sources):
            node = h.holons.get(src.injection_soc)
            if node is None or node.kind is not HolonKind.COMPOSITE:
                _fail(
                    f"environment[{i}].injection_soc",
                    f"no composite holon {src.injection_soc}; events are published to SoCs",
                )
        object.__setattr__(self, "_holons", h.holons)
        object.__setattr__(self, "_parent", h.parent)
        object.__setattr__(self, "_root", h.root)

    @property
    def roles(self) -> frozenset[RoleId]:
        """The role ids, one per role name."""
        return frozenset(range(len(self.role_names)))


# what json.dumps builds afresh for every call with these arguments
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass(slots=True)
class TraceRecord:
    """One line of a trace, as its readers see it.

    A run stores only their values (see the module docstring);
    :attr:`Simulation.trace` builds records from them when it is read, as
    :func:`parse_trace` does from lines. A record is then only read, never
    hashed (its payload is a dict, so it could not be): slotted
    rather than frozen, since a frozen field costs a call on every
    construction. An emitted record's arrays are plain tuples shared with
    the engine's state, a parsed one's are lists, so the two compare equal
    only by :meth:`to_line`.
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


# -- scenario parsing --------------------------------------------------------


class _Invalid(Exception):
    """A schema violation: its message, then the steps of its path, innermost first."""


_ANNOTATIONS = {"$schema", "$id", "title", "description", "$defs"}
_FORMS = {"type", "const", "oneOf", "$ref"}
# bound keyword -> (test the value must pass against the bound, its wording)
_BOUNDS = {
    "minimum": (operator.ge, "at least"),
    "maximum": (operator.le, "at most"),
    "exclusiveMinimum": (operator.gt, "greater than"),
}
# schema type -> (Python types, name, the keywords only that type admits)
_TYPES: dict[str, tuple[Any, str, set[str]]] = {
    "object": (dict, "an object", {"properties", "required", "additionalProperties"}),
    "array": (list, "an array", {"items", "minItems"}),
    "integer": (int, "an integer", set(_BOUNDS)),
    "number": ((int, float), "a number", set(_BOUNDS)),
    "string": (str, "a string", set()),
}


def _compile(node: dict[str, Any], defs: dict[str, Any]) -> Callable[[Any], None]:
    """Turn a schema node into a checker that raises _Invalid.

    A node holds exactly one of type, const, oneOf and $ref, plus the
    keywords its type admits and annotations; objects are closed. Anything
    else raises ValueError: the schema states no rule the loader skips.
    Each form gets a closure of its own, so a check tests no flag of its
    node's form.
    """
    kind = node.get("type")
    extra = node.keys() - _ANNOTATIONS - _FORMS - (_TYPES[kind][2] if kind in _TYPES else set())
    if extra or len(node.keys() & _FORMS) != 1 or kind not in (None, *_TYPES):
        raise ValueError(f"unsupported schema keywords {sorted(extra or node)}")
    if "$ref" in node:
        return _compile(_deref(node, defs), defs)
    if "oneOf" in node:
        return _one_of(node["oneOf"], defs)
    if "const" in node:
        return _const(node["const"])
    if kind == "object":
        return _object(node, defs)
    if kind == "array":
        return _array(node, defs)
    return _scalar(node)


def _deref(node: dict[str, Any], defs: dict[str, Any]) -> dict[str, Any]:
    return defs[node["$ref"].removeprefix("#/$defs/")] if "$ref" in node else node


# schema type -> the Python types a value may have to pass with no call
_EXACT = {"integer": frozenset({int}), "number": frozenset({int, float}), "string": frozenset({str})}


def _fast(node: dict[str, Any], defs: dict[str, Any]) -> tuple[frozenset[type], Any, Any]:
    """``(types, low, high)``: a value of one of ``types`` that lies in
    ``[low, high]``, or anywhere when ``low`` is None, passes the node.

    Its container tests that inline and calls the node's checker only on a
    value that fails it, which the checker may still pass (an ``int``
    subclass) and otherwise words. With no types the checker always runs:
    for an object, an array, a ``oneOf``, a ``const`` that is no number or
    string, and an ``exclusiveMinimum``, which no closed range states.
    """
    node = _deref(node, defs)
    if "const" in node:
        const = node["const"]
        return frozenset({type(const)} & {int, float, str}), const, const
    types = frozenset() if "exclusiveMinimum" in node else _EXACT.get(node.get("type"), frozenset())
    if "minimum" in node or "maximum" in node:
        return types, node.get("minimum", -math.inf), node.get("maximum", math.inf)
    return types, None, None


def _const(expected: Any) -> Callable[[Any], None]:
    def check(value: Any) -> None:
        if value != expected:
            raise _Invalid(f"expected {expected!r}, got {reprlib.repr(value)}")

    return check


def _object(node: dict[str, Any], defs: dict[str, Any]) -> Callable[[Any], None]:
    """Check the value's keys, then each property in the schema's order,
    a scalar one by its inline test (:func:`_fast`) unless it fails that."""
    if node.get("additionalProperties") is not False:
        raise ValueError("objects must set additionalProperties to false")
    known = node.get("properties", {}).keys()
    props = [(key, *_fast(sub, defs), _compile(sub, defs)) for key, sub in node.get("properties", {}).items()]
    required = frozenset(node.get("required", ()))

    def check(value: Any) -> None:
        if not isinstance(value, dict):
            raise _Invalid(f"expected an object, got {reprlib.repr(value)}")
        if not known >= value.keys():
            raise _Invalid(f"unknown keys {sorted(value.keys() - known)}")
        if not required <= value.keys():
            raise _Invalid(f"missing keys {sorted(required - value.keys())}")
        for key, types, low, high, sub in props:
            if key in value:
                v = value[key]
                if type(v) in types and (low is None or low <= v <= high):
                    continue
                try:
                    sub(v)
                except _Invalid as exc:
                    exc.args += (f".{key}",)
                    raise

    return check


def _array(node: dict[str, Any], defs: dict[str, Any]) -> Callable[[Any], None]:
    """Accept an array of scalars by C-level passes over its items' types
    and least and greatest item; walk the items one by one otherwise, so
    that a bad one is reported with its message and index."""
    item = _compile(node["items"], defs)
    types, low, high = _fast(node["items"], defs)
    # min and max pass over a NaN, so an array holding a float is walked
    types -= {float}
    least = node.get("minItems", 0)

    def check(value: Any) -> None:
        if not isinstance(value, list):
            raise _Invalid(f"expected an array, got {reprlib.repr(value)}")
        if len(value) < least:
            raise _Invalid(f"must have at least {least} item(s), got {len(value)}")
        if not value or (
            set(map(type, value)) <= types and (low is None or low <= min(value) and max(value) <= high)
        ):
            return
        for i, element in enumerate(value):
            try:
                item(element)
            except _Invalid as exc:
                exc.args += (f"[{i}]",)
                raise

    return check


def _scalar(node: dict[str, Any]) -> Callable[[Any], None]:
    types, name, _ = _TYPES[node["type"]]
    bounds = [(node[key], *_BOUNDS[key]) for key in _BOUNDS if key in node]

    def check(value: Any) -> None:
        if not isinstance(value, types) or isinstance(value, bool):
            raise _Invalid(f"expected {name}, got {reprlib.repr(value)}")
        for bound, test, wording in bounds:
            if not test(value, bound):
                raise _Invalid(f"must be {wording} {bound}, got {reprlib.repr(value)}")

    return check


def _one_of(branches: list[dict[str, Any]], defs: dict[str, Any]) -> Callable[[Any], None]:
    """Each branch requires its own string ``kind`` const, so only the branch
    the value's kind names can match, and only that one is checked.
    """
    by_kind = {}
    for branch in branches:
        const = branch.get("properties", {}).get("kind", {}).get("const")
        if "kind" not in branch.get("required", ()) or not isinstance(const, str) or const in by_kind:
            raise ValueError("oneOf branches must each require a distinct string kind const")
        by_kind[const] = _compile(branch, defs)

    def check(value: Any) -> None:
        if not isinstance(value, dict):
            raise _Invalid("expected an object")
        if "kind" not in value:
            raise _Invalid("missing keys ['kind']")
        branch = by_kind.get(value["kind"]) if isinstance(value["kind"], str) else None
        if branch is None:
            raise _Invalid(f"expected one of {list(by_kind)}, got {reprlib.repr(value['kind'])}", ".kind")
        branch(value)

    return check


_SCHEMA = json.loads(resources.files(__package__).joinpath("schema/scenario.schema.json").read_text(encoding="utf-8"))
_check_scenario = _compile(_SCHEMA, _SCHEMA["$defs"])


def _fail(where: str, msg: str) -> NoReturn:
    raise ValidationError(f"{where}: {msg}")


# the schema's own checkers of the three numbers a run takes as they are given
_NUMBERS = {
    key: _compile(_SCHEMA["properties"][key], _SCHEMA["$defs"]) for key in ("horizon", "seed", "retry_bound")
}


def _check_number(key: str, value: Any) -> None:
    """Hold ``value`` to the schema's rule for the top-level ``key``, in its words."""
    try:
        _NUMBERS[key](value)
    except _Invalid as exc:
        _fail(key, exc.args[0])


# a holon's kind by its name in the format: a dict read, not an Enum call
_HOLON_KINDS = {kind.value: kind for kind in HolonKind}


def scenario_from_dict(doc: Any) -> Scenario:
    """Check a document against the schema, then convert it, checking by
    hand only the rules the schema cannot state (see the module docstring).

    The holarchy's structure and the sources' injection SoCs are checked by
    the :class:`Scenario` this builds; a structural fault is reported as
    ValidationError under ``holarchy``.
    """
    try:
        _check_scenario(doc)
    except _Invalid as exc:
        msg, *path = exc.args
        _fail("".join(reversed(path)).lstrip(".") or "scenario", msg)

    role_names = tuple(doc["roles"])
    holons = []
    new, origin = tuple.__new__, HolonOrigin.SCENARIO
    for h in doc["holarchy"]:
        members = tuple(h.get("members", ()))
        # a community's representative defaults to its lowest member
        rep = h["representative"] if "representative" in h else min(members, default=None)
        caps = frozenset(h.get("capabilities", ()))
        holons.append(new(Holon, (h["id"], _HOLON_KINDS[h["kind"]], caps, members, rep, origin)))

    activities = []
    for i, a in enumerate(doc["activities"]):
        for j, role in enumerate(a["required_roles"]):
            if role >= len(role_names):
                _fail(f"activities[{i}].required_roles[{j}]", f"must be at most {len(role_names) - 1}, got {role}")
        activities.append(
            ResponseActivity(
                id=a["id"],
                trigger_topics=frozenset(a["trigger_topics"]),
                required_roles=tuple(a["required_roles"]),
                required_data=frozenset(a.get("required_data", ())),
                duration=a.get("duration", 1),
            )
        )
    try:
        table = ActivityTable(activities=tuple(activities))
    except ValueError as exc:
        _fail("activities", str(exc))

    sources = []
    for i, src in enumerate(doc["environment"]):
        p = src["process"]
        process: Process
        if p["kind"] == "poisson":
            process = PoissonProcess(rate=float(p["rate"]))
        elif p["kind"] == "periodic":
            process = PeriodicProcess(period=p["period"], offset=p.get("offset", 0))
        elif p["times"] == sorted(p["times"]):
            process = ScriptedProcess(times=tuple(p["times"]))
        else:
            _fail(f"environment[{i}].process.times", "must be ascending")
        sources.append(EventSource(topic=src["topic"], injection_soc=src["injection_soc"], process=process))

    policy = doc["policy"]
    try:
        return Scenario(
            role_names=role_names,
            holons=tuple(holons),
            activities=table,
            sources=tuple(sources),
            policy=EvolutionPolicy(
                permanentify_threshold=policy["permanentify_threshold"],
                prune_failure_threshold=policy["prune_failure_threshold"],
                prune_window=policy["prune_window"],
                failure_injections=tuple(FailureWindow(**w) for w in policy.get("failure_injections", ())),
            ),
            horizon=doc["horizon"],
            seed=doc["seed"],
            retry_bound=doc["retry_bound"],
        )
    except ViolationError as exc:
        _fail("holarchy", str(exc))


def _reject_constant(token: str) -> float:
    raise ParseError(f"{token} is not a JSON number")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """Build a JSON object, refusing one that repeats a key."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        # the first key, in document order, that occurs twice; counted once
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"duplicate key {next(k for k, _ in pairs if counts[k] > 1)!r}")
    return doc


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Raises ParseError for broken JSON, including nesting too deep for the
    decoder, integer literals too long to convert, the non-standard tokens
    NaN, Infinity and -Infinity and an object that repeats a key, and
    ValidationError, with the path of the offending element, for format
    violations.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from None
    return scenario_from_dict(doc)


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


# -- trace handling ----------------------------------------------------------


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
            doc = json.loads(line, object_pairs_hook=_unique_keys)
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
    """The one metrics fold: one pass over a trace list, by width and unchecked.

    :meth:`Simulation.run` passes its own list, which the engine wrote;
    :func:`report` the values of the records it has checked. Means too
    large for a float, which only a record read back can give, raise
    MalformedTraceError.
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


# -- the simulation loop -----------------------------------------------------


@dataclass(slots=True)
class _Request:
    """A staffing request, open from its trigger tick until an attempt forms
    a SON, an attempt spends the last retry, or the run ends; an attempt
    that leaves it open parks it with what that attempt found missing.
    """

    request_id: int
    activity: ResponseActivity
    origin_soc: int
    triggered_at: int
    retries_left: int
    last_missing: tuple[int, ...] = ()


class Simulation:
    """One run over a scenario: deterministic given (scenario, seed).

    The scenario was checked when the :class:`Scenario` was made, so
    set-up checks only that a ``seed`` or ``horizon`` override lies in the
    schema's range, raising ValidationError in the words :class:`Scenario`
    uses. It builds the run's own mutable
    :class:`~fso_sim.holarchy.Holarchy` from copies of the holon table and
    parent map that check kept, registers the initial service offers and
    samples every arrival.

    The staffing memo ``_memo`` lives for the whole run (see the module
    docstring). With debug enabled (FSO_SIM_DEBUG=1 or debug=True) the
    latent/responding partition, every rule of
    :func:`fso_sim.holarchy.validate` and the kept answer of
    :func:`~fso_sim.evolution.promotion_due` are re-checked after every
    step, every attempt is resolved again without ``_memo``, and violations
    raise InvariantViolationError.

    The trace is the flat list ``_values`` (see the module docstring), and
    :attr:`trace` cuts the records out of it on every read, so a caller
    that reads it more than once should hold the list it returns.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int | None = None,
        horizon: int | None = None,
        debug: bool | None = None,
    ) -> None:
        self.scenario = scenario
        if seed is not None:
            _check_number("seed", seed)
        self.seed = scenario.seed if seed is None else seed
        if horizon is not None:
            _check_number("horizon", horizon)
        self.horizon = scenario.horizon if horizon is None else horizon
        self.debug = os.environ.get(DEBUG_ENV_VAR) == "1" if debug is None else debug
        self.holarchy = Holarchy(dict(scenario._holons), dict(scenario._parent), scenario._root, scenario.roles)
        register_initial_services(self.holarchy)
        self.state = initial_state(self.holarchy)
        self.ledger = ExperienceLedger()
        self.clock = 0
        self._values: list[Any] = []
        # latest first, so the next item is popped off the end
        self._arrivals = sample_arrivals(scenario.sources, self.horizon, self.seed)
        self._arrivals.reverse()
        # the tick of the next item, -1 when none is left. step() reads it on
        # every tick, and an int attribute reads faster than an item's field
        self._next_arrival = self._arrivals[-1].published_at if self._arrivals else -1
        self._dissolve_at: dict[int, list[Son]] = {}
        self._pending: list[_Request] = []
        self._memo: Memo = {}
        self._son_seq = 0
        self._request_seq = 0

    # -- emission -------------------------------------------------------

    @property
    def trace(self) -> list[TraceRecord]:
        """The records written so far, cut out of ``_values`` afresh on each read."""
        values, fields, width = self._values, TRACE_FIELDS, _WIDTH
        records = []
        i, n = 0, len(values)
        while i < n:
            kind = values[i + 1]
            j = i + width[kind]
            records.append(TraceRecord(values[i], kind, dict(zip(fields[kind], values[i + 2 : j]))))
            i = j
        return records

    def _emit_unresolved(self, r: _Request, final: bool) -> None:
        """Write the ``RequestUnresolved`` record of a failed attempt or of a close."""
        self._values.extend(
            (
                self.clock,
                "RequestUnresolved",
                r.activity.id,
                r.request_id,
                r.origin_soc,
                self.scenario.retry_bound - r.retries_left,
                final,
                r.last_missing,
                r.triggered_at,
            )
        )

    # -- tick phases ----------------------------------------------------

    def _phase_dissolve(self, t: int) -> None:
        state = self.state
        extend = self._values.extend
        for son in self._dissolve_at.pop(t):
            outcome = self.scenario.policy.outcome_of(son.activity, t)
            dissolve_son(son, t, state)
            record_outcome(self.ledger, son, outcome, t, self.scenario.policy)
            extend(
                (
                    t,
                    "SonDissolved",
                    son.id,
                    son.activity,
                    # the member's own attribute: Enum.value is a Python-level property
                    outcome._value_,
                    son.members,
                    len(state.inactive),
                    len(state.active),
                )
            )

    def _phase_arrivals(self, t: int) -> list[tuple[ResponseActivity, InformationItem]]:
        triggers: list[tuple[ResponseActivity, InformationItem]] = []
        extend = self._values.extend
        arrivals = self._arrivals
        while self._next_arrival == t:
            item = arrivals.pop()
            self._next_arrival = arrivals[-1].published_at if arrivals else -1
            reg = self.holarchy.registries[item.source]
            if item.topic not in reg.topics:
                # a data topic new to this registry can change a pair's answer
                self._memo.clear()
            triggered = publish(reg, item, self.scenario.activities)
            extend((t, "EventPublished", item.source, item.source_index, item.topic))
            for activity in triggered:
                triggers.append((activity, item))
        return triggers

    def _attempt(self, r: _Request) -> bool:
        """Settle one attempt at ``r``; returns whether it stays parked."""
        activity = r.activity
        result = resolve_request(activity, r.origin_soc, self.holarchy, self.state, self._memo)
        if self.debug:
            # by canon's name: a wrapper on the engine's sees one per attempt
            fresh = canon.resolve_request(activity, r.origin_soc, self.holarchy, self.state)
            if fresh != result:
                raise InvariantViolationError(
                    f"tick {self.clock}: activity {activity.id} at SoC {r.origin_soc} was answered from"
                    f" memory with {result}, but resolves to {fresh}"
                )
        extend = self._values.extend
        for hop in result.hops:
            extend((self.clock, "ExceptionRaised", activity.id, r.request_id, hop.from_soc, hop.to_soc, hop.hop, hop.missing))
        if result.missing:
            r.last_missing = result.missing
            self._emit_unresolved(r, final=r.retries_left == 0)
            return r.retries_left > 0
        son = form_son(activity, result.assignment, self._son_seq, self.clock, self.state, self.holarchy)
        self._son_seq += 1
        self._dissolve_at.setdefault(son.dissolves_at, []).append(son)
        extend(
            (
                self.clock,
                "SonFormed",
                son.id,
                r.request_id,
                son.activity,
                r.origin_soc,
                result.resolved_soc,
                son.members,
                result.spanned_socs,
                len(result.hops),
                r.triggered_at,
                son.dissolves_at,
                len(self.state.inactive),
                len(self.state.active),
            )
        )
        return False

    def _phase_resolve(self, t: int, triggers: list[tuple[ResponseActivity, InformationItem]]) -> None:
        if len(triggers) > 1:
            # a stable sort: one activity's triggers keep their publication order
            triggers.sort(key=lambda trigger: trigger[0].id)
        extend = self._values.extend
        for activity, item in triggers:
            r = _Request(self._request_seq, activity, item.source, t, self.scenario.retry_bound)
            self._request_seq += 1
            extend((t, "ActivityTriggered", activity.id, r.request_id, item.source, item.topic))
            if self._attempt(r):
                self._pending.append(r)

    def _phase_retry(self, t: int) -> None:
        parked: list[_Request] = []
        for r in self._pending:
            # a request opened on this tick has had its attempt for it
            if r.triggered_at < t:
                r.retries_left -= 1
                if not self._attempt(r):
                    continue
            parked.append(r)
        self._pending = parked

    def _phase_evolution(self, t: int) -> None:
        extend = self._values.extend
        for ev in maybe_permanentify(self.ledger, self.holarchy):
            extend((t, "Permanentified", ev.soc, ev.parent, ev.members, ev.activity))
        for ev in maybe_prune(self.ledger, self.holarchy, self.scenario.policy, t):
            extend((t, "Pruned", ev.soc, ev.parent, ev.members))

    def _check_invariants(self) -> None:
        try:
            check_partition(self.state, self.holarchy)
        except Exception as exc:
            raise InvariantViolationError(f"tick {self.clock}: {exc}") from exc
        problems = [str(v) for v in validate(self.holarchy)]
        # nothing is due behind the clock: a passed-over arrival would stall
        # the arrivals phase, and every later arrival with it
        if 0 <= self._next_arrival < self.clock:
            problems.append(f"the arrival due at tick {self._next_arrival} was never published")
        problems.extend(f"the overlays due at tick {t} never dissolved" for t in sorted(self._dissolve_at) if t < self.clock)
        if promotion_due(self.ledger, self.holarchy) != ready_free(self.ledger, self.holarchy):
            problems.append("promotion_due's kept answer is stale")
        if problems:
            raise InvariantViolationError(f"tick {self.clock}: " + "; ".join(problems))

    # -- driving --------------------------------------------------------

    def step(self) -> None:
        """Process exactly one tick: dissolve, publish, resolve, retry, evolve,
        each phase only when it has work (see the module docstring).
        """
        t = self.clock
        freed = t in self._dissolve_at
        if freed:
            self._phase_dissolve(t)
        if self._next_arrival == t:
            self._phase_resolve(t, self._phase_arrivals(t))
        if freed and self._pending:
            self._phase_retry(t)
        ledger = self.ledger
        if ledger.recheck or (ledger.ready and promotion_due(ledger, self.holarchy)):
            self._phase_evolution(t)
        self.clock = t + 1
        if self.debug:
            self._check_invariants()

    def run(self) -> Metrics:
        """Run to the end in one loop over due ticks, then close parked requests.

        The loop steps the least due tick (see the module docstring) until
        none is left; the ticks it jumps over would do nothing, so the trace
        is that of stepping every tick. Requests still parked are closed at
        the horizon, or after the last step if that is later.
        """
        ledger = self.ledger
        while True:
            if not (ledger.ready and promotion_due(ledger, self.holarchy)):
                due = [*self._dissolve_at]
                if self._next_arrival >= 0:
                    due.append(self._next_arrival)
                if not due:
                    break
                self.clock = min(due)
            self.step()
        self.clock = max(self.clock, self.horizon)
        for r in self._pending:
            self._emit_unresolved(r, final=True)
        self._pending = []
        return _fold_rows(self._values)


def run_scenario(
    scenario: Scenario,
    seed: int | None = None,
    horizon: int | None = None,
    debug: bool | None = None,
) -> tuple[list[TraceRecord], Metrics]:
    sim = Simulation(scenario, seed=seed, horizon=horizon, debug=debug)
    metrics = sim.run()
    return sim.trace, metrics
