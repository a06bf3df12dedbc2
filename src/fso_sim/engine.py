"""Scenario files, the simulation loop, traces, and metrics.

A scenario is a strict UTF-8 JSON document in the format of the shipped
``schema/scenario.schema.json``. The loader compiles that schema once, at
import, into its own checker, so no third-party package is needed; integers
must be written without a fraction (``1``, not ``1.0``). It then checks by
hand only what a schema cannot state: role ids below the number of roles,
the holarchy's structure (the rules of :func:`fso_sim.holarchy.validate`,
which :func:`~fso_sim.holarchy.build_holarchy` enforces), unique activity
ids, that each source's topic is used by some activity and its injection
SoC is an existing composite, that scripted times ascend, and that failure
windows stop no earlier than they start and name existing activities. The
simulator turns a scenario into a
stream of trace records, one JSON object per line, so that a (scenario,
seed) pair reproduces the same trace byte for byte. Payload values are
integers, the strings ``topic`` and ``outcome``, the boolean ``final`` of
``RequestUnresolved``, and lists of integers or of ``[actor, role]`` pairs.

Within a tick the order is fixed: due overlays dissolve, environment
arrivals are published, triggered activities resolve in activity id order
(earlier resolutions see the actors consumed by previous ones), parked
requests retry if a dissolution freed actors this tick, and evolution
promotes or prunes. Each phase runs only when it has work: a tick with no
dissolve, no arrival and nothing ready to promote or to re-check for
pruning costs a few comparisons. :meth:`Simulation.step` is still exactly
one tick; :meth:`Simulation.run` is one loop over due ticks, which are the
arrival and dissolve ticks and the tick after a prune that freed a ready
signature for promotion, and it jumps the clock over the rest. The same
loop drains past the horizon, so every formation has its dissolution on
record. Events arrive only before the horizon, but drain ticks are full
ticks: parked requests retry on them, so a SON can form at or after the
horizon and is drained in turn, and a prune on them frees a signature for
promotion on the next tick.

A staffing request is one record from its trigger to its close, and
:meth:`Simulation._attempt` is the one place an attempt at it is settled,
in the resolve phase and the retry phase alike. Attempt 0 comes on the
trigger tick. Retries come only on later ticks on which an overlay
dissolved, at most ``retry_bound`` of them. Each failed attempt writes a
``RequestUnresolved`` record with its ``attempt`` number and whether it
was ``final``, and a request still parked when the run ends gets one more
record with ``final`` true.

Staffing reads only the activity, its start SoC, the registries and which
actors its scans read are idle, so each attempt makes one call to
:func:`~fso_sim.canon.resolve_request` with the simulation's memo, which
answers a repeat from memory (see there). A replay writes the same records
and, when it fails, spends a retry. The memo is emptied when evolution
grafts or removes a SoC and when a publish brings a registry a topic it did
not hold. With debug enabled every attempt is also resolved afresh without
the memo, and a different answer raises InvariantViolationError.
"""

from __future__ import annotations

import json
import operator
import os
import reprlib
from dataclasses import dataclass
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
    Arrival,
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
    record_outcome,
)
from .holarchy import (
    Holarchy,
    Holon,
    HolonKind,
    RoleId,
    ViolationError,
    build_holarchy,
    register_initial_services,
    validate,
)

DEBUG_ENV_VAR = "FSO_SIM_DEBUG"

TRACE_KINDS = (
    "EventPublished",
    "ActivityTriggered",
    "ExceptionRaised",
    "SonFormed",
    "SonDissolved",
    "RequestUnresolved",
    "Permanentified",
    "Pruned",
)


class ParseError(Exception):
    """The scenario file is not valid JSON."""


class ValidationError(Exception):
    """The scenario is well-formed JSON but violates the format."""


class MalformedTraceError(Exception):
    pass


class InvariantViolationError(Exception):
    """A runtime self-check failed; the simulation state is corrupt."""


@dataclass(frozen=True)
class Scenario:
    role_names: tuple[str, ...]
    holons: tuple[Holon, ...]
    activities: ActivityTable
    sources: tuple[EventSource, ...]
    policy: EvolutionPolicy
    horizon: int
    seed: int
    retry_bound: int

    @property
    def roles(self) -> frozenset[RoleId]:
        """The role ids, one per role name."""
        return frozenset(range(len(self.role_names)))


@dataclass(slots=True)
class TraceRecord:
    """One line of a trace.

    Built once per event and then only read, never hashed (its payload is
    a dict, so it could not be): slotted rather than frozen, since a frozen
    field costs a call on every construction.
    """

    tick: int
    kind: str
    payload: dict[str, Any]

    def to_line(self) -> str:
        return json.dumps(
            {"kind": self.kind, "payload": self.payload, "tick": self.tick},
            sort_keys=True,
            separators=(",", ":"),
        )


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
        return {
            "events_published": self.events_published,
            "sons_formed": self.sons_formed,
            "mean_hop_count": self.mean_hop_count,
            "mean_response_latency": self.mean_response_latency,
            "unresolved_requests": self.unresolved_requests,
            "permanentifications": self.permanentifications,
            "prunings": self.prunings,
            "final_partition_sizes": {
                "L": self.final_partition_sizes[0],
                "R": self.final_partition_sizes[1],
            },
        }


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
    """
    kind = node.get("type")
    extra = node.keys() - _ANNOTATIONS - _FORMS - (_TYPES[kind][2] if kind in _TYPES else set())
    if extra or len(node.keys() & _FORMS) != 1 or kind not in (None, *_TYPES):
        raise ValueError(f"unsupported schema keywords {sorted(extra or node)}")
    if "$ref" in node:
        return _compile(defs[node["$ref"].removeprefix("#/$defs/")], defs)
    if "oneOf" in node:
        return _one_of(node["oneOf"], defs)
    if "const" in node:
        return _const(node["const"])
    return _typed(node, defs)


def _const(expected: Any) -> Callable[[Any], None]:
    def check(value: Any) -> None:
        if value != expected:
            raise _Invalid(f"expected {expected!r}, got {reprlib.repr(value)}")

    return check


def _typed(node: dict[str, Any], defs: dict[str, Any]) -> Callable[[Any], None]:
    types, name, _ = _TYPES[node["type"]]
    is_object, is_array = node["type"] == "object", node["type"] == "array"
    if is_object and node.get("additionalProperties") is not False:
        raise ValueError("objects must set additionalProperties to false")
    props = {key: _compile(sub, defs) for key, sub in node.get("properties", {}).items()}
    required = frozenset(node.get("required", ()))
    item = _compile(node["items"], defs) if is_array else None
    least = node.get("minItems", 0)
    bounds = [(node[key], *_BOUNDS[key]) for key in _BOUNDS if key in node]

    def check(value: Any) -> None:
        if not isinstance(value, types) or isinstance(value, bool):
            raise _Invalid(f"expected {name}, got {reprlib.repr(value)}")
        for bound, test, wording in bounds:
            if not test(value, bound):
                raise _Invalid(f"must be {wording} {bound}, got {reprlib.repr(value)}")
        if is_object:
            if not props.keys() >= value.keys():
                raise _Invalid(f"unknown keys {sorted(value.keys() - props.keys())}")
            if not required <= value.keys():
                raise _Invalid(f"missing keys {sorted(required - value.keys())}")
            for key, sub in props.items():
                if key in value:
                    try:
                        sub(value[key])
                    except _Invalid as exc:
                        exc.args += (f".{key}",)
                        raise
        elif is_array:
            if len(value) < least:
                raise _Invalid(f"must have at least {least} item(s), got {len(value)}")
            for i, element in enumerate(value):
                try:
                    item(element)
                except _Invalid as exc:
                    exc.args += (f"[{i}]",)
                    raise

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


def scenario_from_dict(doc: Any) -> Scenario:
    """Check a document against the schema, then convert it, checking by
    hand only the rules the schema cannot state (see the module docstring).
    """
    try:
        _check_scenario(doc)
    except _Invalid as exc:
        msg, *path = exc.args
        _fail("".join(reversed(path)).lstrip(".") or "scenario", msg)

    role_names = tuple(doc["roles"])
    holons = []
    for h in doc["holarchy"]:
        members = tuple(h.get("members", ()))
        # a community's representative defaults to its lowest member
        rep = h.get("representative", min(members, default=None))
        holons.append(Holon(h["id"], HolonKind(h["kind"]), frozenset(h.get("capabilities", ())), members, rep))
    try:
        holarchy = build_holarchy(holons, frozenset(range(len(role_names))))
    except ViolationError as exc:
        _fail("holarchy", str(exc))

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
        where, soc, p = f"environment[{i}]", src["injection_soc"], src["process"]
        if src["topic"] not in table.known_topics:
            _fail(f"{where}.topic", f"topic {src['topic']!r} is not used by any activity")
        if soc not in holarchy.holons or not holarchy.holons[soc].is_composite:
            _fail(f"{where}.injection_soc", f"no composite holon {soc}; events are published to SoCs")
        process: Process
        if p["kind"] == "poisson":
            process = PoissonProcess(rate=float(p["rate"]))
        elif p["kind"] == "periodic":
            process = PeriodicProcess(period=p["period"], offset=p.get("offset", 0))
        elif p["times"] == sorted(p["times"]):
            process = ScriptedProcess(times=tuple(p["times"]))
        else:
            _fail(f"{where}.process.times", "must be ascending")
        sources.append(EventSource(topic=src["topic"], injection_soc=soc, process=process))

    policy = doc["policy"]
    windows = policy.get("failure_injections", ())
    for i, w in enumerate(windows):
        if w["stop"] < w["start"]:
            _fail(f"policy.failure_injections[{i}]", f"stop {w['stop']} precedes start {w['start']}")
        if w["activity"] not in {a.id for a in table.activities}:
            _fail(f"policy.failure_injections[{i}].activity", f"no activity with id {w['activity']}")

    return Scenario(
        role_names=role_names,
        holons=tuple(holons),
        activities=table,
        sources=tuple(sources),
        policy=EvolutionPolicy(
            permanentify_threshold=policy["permanentify_threshold"],
            prune_failure_threshold=policy["prune_failure_threshold"],
            prune_window=policy["prune_window"],
            failure_injections=tuple(FailureWindow(**w) for w in windows),
        ),
        horizon=doc["horizon"],
        seed=doc["seed"],
        retry_bound=doc["retry_bound"],
    )


def _reject_constant(token: str) -> float:
    raise ParseError(f"{token} is not a JSON number")


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """Build a JSON object, refusing one that repeats a key."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
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
    """Parse one record per line, skipping blank lines.

    Only a line feed ends a line. A string may hold any other line break,
    such as U+2028, and the carriage return of a CRLF ending is JSON
    whitespace.
    """
    records = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
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


def _int_field(r: TraceRecord, key: str) -> int:
    value = r.payload[key]
    if type(value) is not int:  # True and False are not counts
        raise MalformedTraceError(f"{r.kind} record has non-integer {key} {value!r}")
    return value


def report(records: Iterable[TraceRecord]) -> Metrics:
    """Fold a trace into metrics; a run's metrics come from its own trace."""
    m = Metrics()
    hop_sum = 0
    latency_sum = 0
    last_sizes: tuple[int, int] | None = None
    for r in records:
        if r.kind not in TRACE_KINDS:
            raise MalformedTraceError(f"unknown kind {r.kind!r}")
        p = r.payload
        try:
            if r.kind == "EventPublished":
                m.events_published += 1
            elif r.kind in ("SonFormed", "SonDissolved"):
                if r.kind == "SonFormed":
                    m.sons_formed += 1
                    hop_sum += _int_field(r, "hop_count")
                    latency_sum += r.tick - _int_field(r, "triggered_at")
                last_sizes = (_int_field(r, "l_size"), _int_field(r, "r_size"))
            elif r.kind == "RequestUnresolved":
                if not isinstance(p["final"], bool):
                    raise MalformedTraceError(f"{r.kind} record has non-boolean final {p['final']!r}")
                m.unresolved_requests += p["final"]
            elif r.kind == "Permanentified":
                m.permanentifications += 1
            elif r.kind == "Pruned":
                m.prunings += 1
        except KeyError as exc:
            raise MalformedTraceError(f"{r.kind} record lacks key {exc}") from None
    try:
        if m.sons_formed:
            m.mean_hop_count = hop_sum / m.sons_formed
            m.mean_response_latency = latency_sum / m.sons_formed
    except OverflowError:
        raise MalformedTraceError("a mean hop count or latency does not fit a float") from None
    if last_sizes is not None:
        m.final_partition_sizes = last_sizes
    return m


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


def _debug_default() -> bool:
    return os.environ.get(DEBUG_ENV_VAR, "") == "1"


class Simulation:
    """One run over a scenario: deterministic given (scenario, seed).

    With debug enabled (FSO_SIM_DEBUG=1 or debug=True) the latent/responding
    partition and every rule of :func:`fso_sim.holarchy.validate` are
    re-checked after every step, every attempt is resolved again without
    the staffing memo ``_memo``, and violations raise InvariantViolationError.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int | None = None,
        horizon: int | None = None,
        debug: bool | None = None,
    ) -> None:
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.horizon = scenario.horizon if horizon is None else horizon
        self.debug = _debug_default() if debug is None else debug
        self.holarchy: Holarchy = build_holarchy(scenario.holons, scenario.roles)
        register_initial_services(self.holarchy)
        self.state = initial_state(self.holarchy)
        self.ledger = ExperienceLedger()
        self.clock = 0
        self.trace: list[TraceRecord] = []
        # latest first, so the next arrival is popped off the end
        self._arrivals: list[Arrival] = sample_arrivals(scenario.sources, (0, self.horizon), self.seed)[::-1]
        # the tick of the next arrival, -1 when none is left. step() reads it
        # on every tick, and an int attribute reads faster than a field of
        # the Arrival tuple
        self._next_arrival = self._arrivals[-1].time if self._arrivals else -1
        self._dissolve_at: dict[int, list[Son]] = {}
        self._pending: list[_Request] = []
        self._memo: Memo = {}
        self._son_seq = 0
        self._request_seq = 0

    # -- emission helpers ---------------------------------------------

    def _emit(self, kind: str, **payload: Any) -> None:
        self.trace.append(TraceRecord(tick=self.clock, kind=kind, payload=payload))

    def _sizes(self) -> tuple[int, int]:
        return len(self.state.inactive), len(self.state.active)

    def _emit_unresolved(self, r: _Request, final: bool) -> None:
        self._emit(
            "RequestUnresolved",
            activity=r.activity.id,
            request=r.request_id,
            origin_soc=r.origin_soc,
            attempt=self.scenario.retry_bound - r.retries_left,
            final=final,
            missing=list(r.last_missing),
            triggered_at=r.triggered_at,
        )

    # -- tick phases ----------------------------------------------------

    def _phase_dissolve(self, t: int) -> None:
        for son in self._dissolve_at.pop(t):
            outcome = self.scenario.policy.outcome_of(son.activity, t)
            dissolve_son(son, t, self.state)
            record_outcome(self.ledger, son, outcome, t, self.scenario.policy)
            l_size, r_size = self._sizes()
            self._emit(
                "SonDissolved",
                son=son.id,
                activity=son.activity,
                outcome=outcome.value,
                members=[[a, r] for a, r in son.members],
                l_size=l_size,
                r_size=r_size,
            )

    def _phase_arrivals(self, t: int) -> list[tuple[ResponseActivity, int, str]]:
        triggers: list[tuple[ResponseActivity, int, str]] = []
        while self._next_arrival == t:
            arrival = self._arrivals.pop()
            self._next_arrival = self._arrivals[-1].time if self._arrivals else -1
            reg = self.holarchy.registries[arrival.item.source]
            if arrival.item.topic not in reg.topics:
                # a data topic new to this registry can change a pair's answer
                self._memo.clear()
            triggered = publish(reg, arrival.item, self.scenario.activities)
            self._emit(
                "EventPublished",
                soc=arrival.item.source,
                source=arrival.source_index,
                topic=arrival.item.topic,
            )
            for activity in triggered:
                triggers.append((activity, arrival.item.source, arrival.item.topic))
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
        for hop in result.hops:
            self._emit(
                "ExceptionRaised",
                activity=activity.id,
                request=r.request_id,
                from_soc=hop.from_soc,
                to_soc=hop.to_soc,
                hop=hop.hop,
                missing=list(hop.missing),
            )
        if result.missing:
            r.last_missing = result.missing
            self._emit_unresolved(r, final=r.retries_left == 0)
            return r.retries_left > 0
        son = form_son(activity, result.assignment, self._son_seq, self.clock, self.state, self.holarchy)
        self._son_seq += 1
        self._dissolve_at.setdefault(son.dissolves_at, []).append(son)
        l_size, r_size = self._sizes()
        self._emit(
            "SonFormed",
            son=son.id,
            request=r.request_id,
            activity=son.activity,
            origin_soc=r.origin_soc,
            resolved_soc=result.resolved_soc,
            members=[[a, role] for a, role in son.members],
            spanned_socs=sorted(result.spanned_socs),
            hop_count=len(result.hops),
            triggered_at=r.triggered_at,
            dissolves_at=son.dissolves_at,
            l_size=l_size,
            r_size=r_size,
        )
        return False

    def _phase_resolve(self, t: int, triggers: list[tuple[ResponseActivity, int, str]]) -> None:
        # a stable sort: one activity's triggers keep their publication order
        for activity, soc, topic in sorted(triggers, key=lambda trigger: trigger[0].id):
            r = _Request(self._request_seq, activity, soc, t, self.scenario.retry_bound)
            self._request_seq += 1
            self._emit("ActivityTriggered", activity=activity.id, request=r.request_id, soc=soc, topic=topic)
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
        promotions = maybe_permanentify(self.ledger, self.holarchy)
        for ev in promotions:
            self._emit(
                "Permanentified",
                soc=ev.soc,
                parent=ev.parent,
                members=list(ev.members),
                activity=ev.activity,
            )
        prunes = maybe_prune(self.ledger, self.holarchy, self.scenario.policy, t)
        for ev in prunes:
            self._emit("Pruned", soc=ev.soc, parent=ev.parent, members=list(ev.members))
        if promotions or prunes:
            # a graft or a removal rewrites the registries and the chain staffing reads
            self._memo.clear()

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
        if problems:
            raise InvariantViolationError(f"tick {self.clock}: " + "; ".join(problems))

    # -- driving --------------------------------------------------------

    def step(self) -> None:
        """Process exactly one tick: dissolve, publish, resolve, retry, evolve.

        Each phase runs only when it has work: dissolve on a tick some
        overlay dissolves at, publish and resolve on an arrival tick, retry
        when a dissolution freed actors and a request is parked, evolution
        while a signature is ready to promote or to re-check for pruning.
        :meth:`run` is one loop over due ticks that steps each of them.
        """
        t = self.clock
        freed = t in self._dissolve_at
        if freed:
            self._phase_dissolve(t)
        if self._next_arrival == t:
            self._phase_resolve(t, self._phase_arrivals(t))
        if freed and self._pending:
            self._phase_retry(t)
        if self.ledger.ready or self.ledger.recheck:
            self._phase_evolution(t)
        self.clock = t + 1
        if self.debug:
            self._check_invariants()

    def run(self) -> Metrics:
        """Run to the end in one loop over due ticks, then close parked requests.

        A tick is due when an arrival or an open overlay's dissolve falls on
        it, and the clock's own tick is due when a prune has freed a ready
        signature for promotion. The loop steps the least due tick until none
        is left. The ticks it jumps over would do nothing, so the trace is
        that of stepping every tick. Arrivals come only before the horizon,
        so past it the loop drains: parked requests retry on dissolve ticks
        and may form SONs, which are drained in turn, and freed signatures
        are promoted. Requests still parked are closed at the horizon, or
        after the last step if that is later.
        """
        while True:
            if not promotion_due(self.ledger, self.holarchy):
                due = [*self._dissolve_at, *(a.time for a in self._arrivals[-1:])]
                if not due:
                    break
                self.clock = min(due)
            self.step()
        self.clock = max(self.clock, self.horizon)
        for r in self._pending:
            self._emit_unresolved(r, final=True)
        self._pending = []
        return report(self.trace)


def run_scenario(
    scenario: Scenario,
    seed: int | None = None,
    horizon: int | None = None,
    debug: bool | None = None,
) -> tuple[list[TraceRecord], Metrics]:
    sim = Simulation(scenario, seed=seed, horizon=horizon, debug=debug)
    metrics = sim.run()
    return sim.trace, metrics
