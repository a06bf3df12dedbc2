"""Scenario files, the simulation loop, traces, and metrics.

A scenario is a strict UTF-8 JSON document with exactly the top level keys
roles, holarchy, activities, environment, policy, horizon, seed and
retry_bound; unknown keys are rejected everywhere. The simulator turns a
scenario into a stream of trace records, one JSON object per line, with
integer payloads only, so that a (scenario, seed) pair reproduces the same
trace byte for byte.

Within a tick the order is fixed: due overlays dissolve, environment
arrivals are published, triggered activities resolve in activity id order
(earlier resolutions see the actors consumed by previous ones), parked
requests retry if a dissolution freed actors this tick, and evolution
promotes or prunes. Overlays still open at the horizon are drained past it
so every formation has its dissolution on record.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable

from .activation import check_partition, initial_state
from .canon import (
    ActivityTable,
    ResponseActivity,
    Son,
    SonPlan,
    Unresolved,
    form_son,
    dissolve_son,
    publish,
    resolve_request,
)
from .environment import (
    Arrival,
    EnvironmentSpec,
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
    Outcome,
    maybe_permanentify,
    maybe_prune,
    record_outcome,
)
from .holarchy import (
    HolarchyError,
    HolarchySpec,
    Holarchy,
    HolonKind,
    HolonSpec,
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
    holarchy: HolarchySpec
    activities: ActivityTable
    environment: EnvironmentSpec
    policy: EvolutionPolicy
    horizon: int
    seed: int
    retry_bound: int


@dataclass(frozen=True)
class TraceRecord:
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


def _fail(where: str, msg: str) -> None:
    raise ValidationError(f"{where}: {msg}")


def _expect_object(value: Any, where: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        _fail(where, "expected an object")
    return value


def _expect_array(value: Any, where: str) -> list[Any]:
    if not isinstance(value, list):
        _fail(where, "expected an array")
    return value


def _expect_keys(obj: dict[str, Any], where: str, required: set[str], optional: set[str] = set()) -> None:
    unknown = sorted(set(obj) - required - optional)
    if unknown:
        _fail(where, f"unknown keys {unknown}")
    missing = sorted(required - set(obj))
    if missing:
        _fail(where, f"missing keys {missing}")


def _expect_int(value: Any, where: str, minimum: int | None = None, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(where, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        _fail(where, f"must be at least {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(where, f"must be at most {maximum}, got {value}")
    return value


def _expect_number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(where, f"expected a number, got {value!r}")
    return float(value)


def _expect_str(value: Any, where: str) -> str:
    if not isinstance(value, str):
        _fail(where, f"expected a string, got {value!r}")
    return value


def _parse_holon(obj: Any, where: str) -> HolonSpec:
    obj = _expect_object(obj, where)
    if "kind" not in obj:
        _fail(where, "missing keys ['kind']")
    kind = _expect_str(obj["kind"], f"{where}.kind")
    if kind == "atomic":
        _expect_keys(obj, where, {"id", "kind"}, {"capabilities"})
        caps = tuple(
            _expect_int(c, f"{where}.capabilities[{i}]", minimum=0)
            for i, c in enumerate(_expect_array(obj.get("capabilities", []), f"{where}.capabilities"))
        )
        return HolonSpec(
            id=_expect_int(obj["id"], f"{where}.id", minimum=0),
            kind=HolonKind.ATOMIC,
            capabilities=caps,
        )
    if kind == "composite":
        _expect_keys(obj, where, {"id", "kind", "members"}, {"representative"})
        members = tuple(
            _expect_int(m, f"{where}.members[{i}]", minimum=0)
            for i, m in enumerate(_expect_array(obj["members"], f"{where}.members"))
        )
        rep = None
        if "representative" in obj:
            rep = _expect_int(obj["representative"], f"{where}.representative", minimum=0)
        return HolonSpec(
            id=_expect_int(obj["id"], f"{where}.id", minimum=0),
            kind=HolonKind.COMPOSITE,
            members=members,
            representative=rep,
        )
    _fail(f"{where}.kind", f"expected 'atomic' or 'composite', got {kind!r}")
    raise AssertionError("unreachable")


def _parse_activity(obj: Any, where: str, role_count: int) -> ResponseActivity:
    obj = _expect_object(obj, where)
    _expect_keys(obj, where, {"id", "trigger_topics", "required_roles"}, {"required_data", "duration"})
    topics = frozenset(
        _expect_str(s, f"{where}.trigger_topics[{i}]")
        for i, s in enumerate(_expect_array(obj["trigger_topics"], f"{where}.trigger_topics"))
    )
    roles = tuple(
        _expect_int(r, f"{where}.required_roles[{i}]", minimum=0, maximum=role_count - 1)
        for i, r in enumerate(_expect_array(obj["required_roles"], f"{where}.required_roles"))
    )
    data = frozenset(
        _expect_str(s, f"{where}.required_data[{i}]")
        for i, s in enumerate(_expect_array(obj.get("required_data", []), f"{where}.required_data"))
    )
    duration = _expect_int(obj.get("duration", 1), f"{where}.duration", minimum=1)
    try:
        return ResponseActivity(
            id=_expect_int(obj["id"], f"{where}.id", minimum=0),
            trigger_topics=topics,
            required_roles=tuple(sorted(roles)),
            required_data=data,
            duration=duration,
        )
    except ValueError as exc:
        _fail(where, str(exc))
        raise AssertionError("unreachable")


def _parse_process(obj: Any, where: str) -> Process:
    obj = _expect_object(obj, where)
    kind = obj.get("kind")
    if kind == "poisson":
        _expect_keys(obj, where, {"kind", "rate"})
        rate = _expect_number(obj["rate"], f"{where}.rate")
        if not rate > 0:
            _fail(f"{where}.rate", f"must be positive, got {rate}")
        return PoissonProcess(rate=rate)
    if kind == "periodic":
        _expect_keys(obj, where, {"kind", "period"}, {"offset"})
        return PeriodicProcess(
            period=_expect_int(obj["period"], f"{where}.period", minimum=1),
            offset=_expect_int(obj.get("offset", 0), f"{where}.offset", minimum=0),
        )
    if kind == "scripted":
        _expect_keys(obj, where, {"kind", "times"})
        times = tuple(
            _expect_int(t, f"{where}.times[{i}]", minimum=0)
            for i, t in enumerate(_expect_array(obj["times"], f"{where}.times"))
        )
        if list(times) != sorted(times):
            _fail(f"{where}.times", "must be ascending")
        return ScriptedProcess(times=times)
    _fail(f"{where}.kind", f"expected 'poisson', 'periodic' or 'scripted', got {kind!r}")
    raise AssertionError("unreachable")


def _parse_policy(obj: Any, where: str) -> EvolutionPolicy:
    obj = _expect_object(obj, where)
    _expect_keys(
        obj,
        where,
        {"permanentify_threshold", "prune_failure_threshold", "prune_window"},
        {"strength_increment", "failure_injections"},
    )
    injections = []
    for i, item in enumerate(_expect_array(obj.get("failure_injections", []), f"{where}.failure_injections")):
        iw = f"{where}.failure_injections[{i}]"
        item = _expect_object(item, iw)
        _expect_keys(item, iw, {"activity", "start", "stop"})
        start = _expect_int(item["start"], f"{iw}.start", minimum=0)
        stop = _expect_int(item["stop"], f"{iw}.stop", minimum=0)
        if stop < start:
            _fail(iw, f"stop {stop} precedes start {start}")
        injections.append(
            FailureWindow(
                activity=_expect_int(item["activity"], f"{iw}.activity", minimum=0),
                start=start,
                stop=stop,
            )
        )
    increment = obj.get("strength_increment", 1.0)
    increment = _expect_number(increment, f"{where}.strength_increment")
    if increment < 0:
        _fail(f"{where}.strength_increment", "must not be negative")
    try:
        return EvolutionPolicy(
            permanentify_threshold=_expect_int(obj["permanentify_threshold"], f"{where}.permanentify_threshold", minimum=1),
            prune_failure_threshold=_expect_int(obj["prune_failure_threshold"], f"{where}.prune_failure_threshold", minimum=1),
            prune_window=_expect_int(obj["prune_window"], f"{where}.prune_window", minimum=1),
            strength_increment=increment,
            failure_injections=tuple(injections),
        )
    except ValueError as exc:
        _fail(where, str(exc))
        raise AssertionError("unreachable")


TOP_LEVEL_KEYS = {
    "roles",
    "holarchy",
    "activities",
    "environment",
    "policy",
    "horizon",
    "seed",
    "retry_bound",
}


def scenario_from_dict(doc: Any) -> Scenario:
    doc = _expect_object(doc, "scenario")
    _expect_keys(doc, "scenario", TOP_LEVEL_KEYS)

    role_names = tuple(
        _expect_str(name, f"roles[{i}]") for i, name in enumerate(_expect_array(doc["roles"], "roles"))
    )
    if not role_names:
        _fail("roles", "at least one role is required")

    holon_specs = tuple(
        _parse_holon(obj, f"holarchy[{i}]") for i, obj in enumerate(_expect_array(doc["holarchy"], "holarchy"))
    )
    spec = HolarchySpec(roles=frozenset(range(len(role_names))), holons=holon_specs)
    try:
        h = build_holarchy(spec)
    except HolarchyError as exc:
        _fail("holarchy", str(exc))
        raise AssertionError("unreachable")

    activities = tuple(
        _parse_activity(obj, f"activities[{i}]", len(role_names))
        for i, obj in enumerate(_expect_array(doc["activities"], "activities"))
    )
    try:
        table = ActivityTable(activities=activities)
    except ValueError as exc:
        _fail("activities", str(exc))
        raise AssertionError("unreachable")

    sources = []
    for i, obj in enumerate(_expect_array(doc["environment"], "environment")):
        where = f"environment[{i}]"
        obj = _expect_object(obj, where)
        _expect_keys(obj, where, {"topic", "injection_soc", "process"})
        topic = _expect_str(obj["topic"], f"{where}.topic")
        if topic not in table.known_topics:
            _fail(f"{where}.topic", f"topic {topic!r} is not used by any activity")
        soc = _expect_int(obj["injection_soc"], f"{where}.injection_soc", minimum=0)
        if soc not in h.holons:
            _fail(f"{where}.injection_soc", f"holon {soc} does not exist")
        if not h.holons[soc].is_composite:
            _fail(f"{where}.injection_soc", f"holon {soc} is atomic; events are published to SoCs")
        sources.append(EventSource(topic=topic, injection_soc=soc, process=_parse_process(obj["process"], f"{where}.process")))

    policy = _parse_policy(doc["policy"], "policy")
    for i, window in enumerate(policy.failure_injections):
        if all(a.id != window.activity for a in table.activities):
            _fail(f"policy.failure_injections[{i}].activity", f"no activity with id {window.activity}")

    return Scenario(
        role_names=role_names,
        holarchy=spec,
        activities=table,
        environment=EnvironmentSpec(sources=tuple(sources)),
        policy=policy,
        horizon=_expect_int(doc["horizon"], "horizon", minimum=0),
        seed=_expect_int(doc["seed"], "seed", minimum=0, maximum=(1 << 64) - 1),
        retry_bound=_expect_int(doc["retry_bound"], "retry_bound", minimum=0),
    )


def _reject_constant(token: str) -> float:
    raise ParseError(f"{token} is not a JSON number")


def load_scenario(text: str) -> Scenario:
    """Parse and validate a scenario document.

    Raises ParseError for broken JSON, including nesting too deep for the
    decoder, integer literals too long to convert and the non-standard
    tokens NaN, Infinity and -Infinity, and ValidationError, with the path
    of the offending element, for format violations.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(str(exc)) from None
    return scenario_from_dict(doc)


def load_scenario_file(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return load_scenario(fh.read())


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    """Inverse of scenario_from_dict, up to default field elision."""
    holons = []
    for hs in s.holarchy.holons:
        if hs.kind is HolonKind.ATOMIC:
            holons.append({"id": hs.id, "kind": "atomic", "capabilities": list(hs.capabilities)})
        else:
            entry: dict[str, Any] = {"id": hs.id, "kind": "composite", "members": list(hs.members)}
            if hs.representative is not None:
                entry["representative"] = hs.representative
            holons.append(entry)
    activities = [
        {
            "id": a.id,
            "trigger_topics": sorted(a.trigger_topics),
            "required_roles": list(a.required_roles),
            "required_data": sorted(a.required_data),
            "duration": a.duration,
        }
        for a in s.activities.activities
    ]
    sources = []
    for src in s.environment.sources:
        if isinstance(src.process, PoissonProcess):
            process: dict[str, Any] = {"kind": "poisson", "rate": src.process.rate}
        elif isinstance(src.process, PeriodicProcess):
            process = {"kind": "periodic", "period": src.process.period, "offset": src.process.offset}
        else:
            process = {"kind": "scripted", "times": list(src.process.times)}
        sources.append({"topic": src.topic, "injection_soc": src.injection_soc, "process": process})
    return {
        "roles": list(s.role_names),
        "holarchy": holons,
        "activities": activities,
        "environment": sources,
        "policy": {
            "permanentify_threshold": s.policy.permanentify_threshold,
            "prune_failure_threshold": s.policy.prune_failure_threshold,
            "prune_window": s.policy.prune_window,
            "strength_increment": s.policy.strength_increment,
            "failure_injections": [
                {"activity": w.activity, "start": w.start, "stop": w.stop}
                for w in s.policy.failure_injections
            ],
        },
        "horizon": s.horizon,
        "seed": s.seed,
        "retry_bound": s.retry_bound,
    }


# -- trace handling ----------------------------------------------------------


def parse_trace(text: str) -> list[TraceRecord]:
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            doc = json.loads(line)
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
    if isinstance(value, bool) or not isinstance(value, int):
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
            elif r.kind == "SonFormed":
                m.sons_formed += 1
                hop_sum += _int_field(r, "hop_count")
                latency_sum += r.tick - _int_field(r, "triggered_at")
                last_sizes = (p["l_size"], p["r_size"])
            elif r.kind == "SonDissolved":
                last_sizes = (p["l_size"], p["r_size"])
            elif r.kind == "RequestUnresolved":
                if p["final"]:
                    m.unresolved_requests += 1
            elif r.kind == "Permanentified":
                m.permanentifications += 1
            elif r.kind == "Pruned":
                m.prunings += 1
        except KeyError as exc:
            raise MalformedTraceError(f"{r.kind} record lacks key {exc}") from None
    if m.sons_formed:
        m.mean_hop_count = hop_sum / m.sons_formed
        m.mean_response_latency = latency_sum / m.sons_formed
    if last_sizes is not None:
        m.final_partition_sizes = last_sizes
    return m


# -- the simulation loop -----------------------------------------------------


@dataclass
class _Pending:
    request_id: int
    activity_id: int
    origin_soc: int
    triggered_at: int
    retries_left: int
    last_attempt: int
    last_missing: tuple[int, ...]


def _debug_default() -> bool:
    return os.environ.get(DEBUG_ENV_VAR, "") == "1"


class Simulation:
    """One run over a scenario: deterministic given (scenario, seed).

    With debug enabled (FSO_SIM_DEBUG=1 or debug=True) the latent/responding
    partition and the structural invariants are re-checked after every step
    and violations raise InvariantViolationError.
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
        self.holarchy: Holarchy = build_holarchy(scenario.holarchy)
        register_initial_services(self.holarchy, 0)
        self.state = initial_state(self.holarchy)
        self.ledger = ExperienceLedger()
        self.clock = 0
        self.trace: list[TraceRecord] = []
        self._arrivals: list[Arrival] = sample_arrivals(scenario.environment, (0, self.horizon), self.seed)
        self._cursor = 0
        self._dissolve_at: dict[int, list[Son]] = {}
        self._pending: list[_Pending] = []
        self._son_seq = 0
        self._request_seq = 0

    # -- emission helpers ---------------------------------------------

    def _emit(self, kind: str, **payload: Any) -> None:
        self.trace.append(TraceRecord(tick=self.clock, kind=kind, payload=payload))

    def _sizes(self) -> tuple[int, int]:
        return len(self.state.inactive), len(self.state.active)

    # -- tick phases ----------------------------------------------------

    def _phase_dissolve(self, t: int) -> bool:
        sons = self._dissolve_at.pop(t, [])
        for son in sons:
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
        return bool(sons)

    def _phase_arrivals(self, t: int) -> list[tuple[int, int, int, str]]:
        triggers: list[tuple[int, int, int, str]] = []
        order = 0
        while self._cursor < len(self._arrivals) and self._arrivals[self._cursor].time == t:
            arrival = self._arrivals[self._cursor]
            self._cursor += 1
            reg = self.holarchy.registries[arrival.item.source]
            triggered = publish(reg, arrival.item, self.scenario.activities)
            self._emit(
                "EventPublished",
                soc=arrival.item.source,
                source=arrival.source_index,
                topic=arrival.item.topic,
            )
            for activity in triggered:
                triggers.append((activity.id, order, arrival.item.source, arrival.item.topic))
                order += 1
        return triggers

    def _attempt(self, activity_id: int, origin_soc: int, request_id: int, triggered_at: int) -> SonPlan | Unresolved:
        activity = self.scenario.activities.by_id(activity_id)
        result = resolve_request(activity, origin_soc, self.holarchy, self.state)
        for hop in result.hops:
            self._emit(
                "ExceptionRaised",
                activity=activity_id,
                request=request_id,
                from_soc=hop.from_soc,
                to_soc=hop.to_soc,
                hop=hop.hop,
                missing=list(hop.missing),
            )
        if isinstance(result, SonPlan):
            son_id = self._son_seq
            self._son_seq += 1
            son = form_son(result, son_id, request_id, self.clock, self.state, self.holarchy)
            self._dissolve_at.setdefault(son.dissolves_at, []).append(son)
            l_size, r_size = self._sizes()
            self._emit(
                "SonFormed",
                son=son.id,
                request=request_id,
                activity=activity_id,
                origin_soc=result.origin_soc,
                resolved_soc=result.resolved_soc,
                members=[[a, r] for a, r in son.members],
                spanned_socs=sorted(result.spanned_socs),
                hop_count=result.hop_count,
                triggered_at=triggered_at,
                dissolves_at=son.dissolves_at,
                l_size=l_size,
                r_size=r_size,
            )
        return result

    def _phase_resolve(self, t: int, triggers: list[tuple[int, int, int, str]]) -> None:
        for activity_id, _, soc, topic in sorted(triggers):
            request_id = self._request_seq
            self._request_seq += 1
            self._emit("ActivityTriggered", activity=activity_id, request=request_id, soc=soc, topic=topic)
            result = self._attempt(activity_id, soc, request_id, t)
            if isinstance(result, Unresolved):
                final = self.scenario.retry_bound == 0
                self._emit(
                    "RequestUnresolved",
                    activity=activity_id,
                    request=request_id,
                    origin_soc=soc,
                    attempt=0,
                    final=final,
                    missing=list(result.missing),
                    triggered_at=t,
                )
                if not final:
                    self._pending.append(
                        _Pending(
                            request_id=request_id,
                            activity_id=activity_id,
                            origin_soc=soc,
                            triggered_at=t,
                            retries_left=self.scenario.retry_bound,
                            last_attempt=t,
                            last_missing=result.missing,
                        )
                    )

    def _phase_retry(self, t: int) -> None:
        survivors: list[_Pending] = []
        for p in list(self._pending):
            if p.last_attempt >= t:
                survivors.append(p)
                continue
            result = self._attempt(p.activity_id, p.origin_soc, p.request_id, p.triggered_at)
            if isinstance(result, SonPlan):
                continue
            p.retries_left -= 1
            p.last_attempt = t
            p.last_missing = result.missing
            attempt = self.scenario.retry_bound - p.retries_left
            final = p.retries_left == 0
            self._emit(
                "RequestUnresolved",
                activity=p.activity_id,
                request=p.request_id,
                origin_soc=p.origin_soc,
                attempt=attempt,
                final=final,
                missing=list(result.missing),
                triggered_at=p.triggered_at,
            )
            if not final:
                survivors.append(p)
        self._pending = survivors

    def _phase_evolution(self, t: int) -> None:
        promotions = maybe_permanentify(self.ledger, self.holarchy, self.scenario.policy, t)
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

    def _check_invariants(self) -> None:
        try:
            check_partition(self.state, self.holarchy)
        except Exception as exc:
            raise InvariantViolationError(f"tick {self.clock}: {exc}") from exc
        violations = validate(self.holarchy)
        if violations:
            raise InvariantViolationError(f"tick {self.clock}: " + "; ".join(str(v) for v in violations))

    # -- driving --------------------------------------------------------

    def step(self) -> None:
        """Process one tick: dissolve, publish, resolve, retry, evolve."""
        t = self.clock
        freed = self._phase_dissolve(t)
        triggers = self._phase_arrivals(t)
        self._phase_resolve(t, triggers)
        if freed:
            self._phase_retry(t)
        self._phase_evolution(t)
        self.clock = t + 1
        if self.debug:
            self._check_invariants()

    def run(self) -> Metrics:
        """Run to the horizon, drain open overlays, close parked requests."""
        while self.clock < self.horizon:
            self.step()
        while self._dissolve_at:
            t = min(self._dissolve_at)
            self.clock = t
            freed = self._phase_dissolve(t)
            if freed:
                self._phase_retry(t)
            self._phase_evolution(t)
            self.clock = t + 1
            if self.debug:
                self._check_invariants()
        for p in self._pending:
            self._emit(
                "RequestUnresolved",
                activity=p.activity_id,
                request=p.request_id,
                origin_soc=p.origin_soc,
                attempt=self.scenario.retry_bound - p.retries_left,
                final=True,
                missing=list(p.last_missing),
                triggered_at=p.triggered_at,
            )
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
