"""Scenario loading, the tick loop, traces, and metrics."""

from __future__ import annotations

import copy
import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fso_sim.trace
from fso_sim import canon, engine, holarchy
from fso_sim.canon import DATA_MISSING, ResponseActivity
from fso_sim.engine import (
    InvariantViolationError,
    ParseError,
    Simulation,
    ValidationError,
    load_scenario,
    load_scenario_file,
    run_scenario,
    scenario_from_dict,
)
from fso_sim.environment import EventSource, PeriodicProcess, PoissonProcess, ScriptedProcess
from fso_sim.evolution import EvolutionPolicy, FailureWindow, Outcome, SonSignature, promotion_due, record_outcome
from fso_sim.holarchy import Holarchy, Holon, HolonKind, ViolationError
from fso_sim.trace import (
    TRACE_FIELDS,
    TRACE_KINDS,
    MalformedTraceError,
    Metrics,
    TraceRecord,
    parse_trace,
    report,
    write_trace,
)

from generators import random_scenario, shared_member_list_scenario_dict
from oracles import fold_metrics, reference_report, replay_partition, request_attempt_check, son_lifecycle_check
from test_golden_traces import FIXTURES
from test_workload_traces import _workloads, workload_file, workload_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SCHEMA = json.loads((Path(engine.__file__).parent / "schema" / "scenario.schema.json").read_text())


def minimal_doc():
    return {
        "roles": ["helper", "fixer"],
        "holarchy": [
            {"id": 0, "kind": "atomic", "capabilities": [0]},
            {"id": 1, "kind": "atomic", "capabilities": [1]},
            {"id": 2, "kind": "composite", "members": [0], "representative": 0},
            {"id": 3, "kind": "composite", "members": [1], "representative": 1},
            {"id": 4, "kind": "composite", "members": [2, 3], "representative": 2},
        ],
        "activities": [
            {"id": 0, "trigger_topics": ["knock"], "required_roles": [0], "required_data": [], "duration": 2}
        ],
        "environment": [
            {"topic": "knock", "injection_soc": 2, "process": {"kind": "scripted", "times": [1, 2]}}
        ],
        "policy": {
            "permanentify_threshold": 100,
            "prune_failure_threshold": 100,
            "prune_window": 100,
            "strength_increment": 1.0,
            "failure_injections": [],
        },
        "horizon": 10,
        "seed": 0,
        "retry_bound": 3,
    }


# -- loading -----------------------------------------------------------------


def test_load_happy_path():
    s = scenario_from_dict(minimal_doc())
    assert s.role_names == ("helper", "fixer")
    atomic, composite = HolonKind.ATOMIC, HolonKind.COMPOSITE
    assert s.roles == frozenset({0, 1})
    assert s.holons == (
        Holon(id=0, kind=atomic, capabilities=frozenset({0})),
        Holon(id=1, kind=atomic, capabilities=frozenset({1})),
        Holon(id=2, kind=composite, members=(0,), representative=0),
        Holon(id=3, kind=composite, members=(1,), representative=1),
        Holon(id=4, kind=composite, members=(2, 3), representative=2),
    )
    assert s.activities.activities == (
        ResponseActivity(id=0, trigger_topics=frozenset({"knock"}), required_roles=(0,), duration=2),
    )
    assert s.sources == (EventSource("knock", 2, ScriptedProcess(times=(1, 2))),)
    assert s.policy == EvolutionPolicy(100, 100, 100, failure_injections=())
    assert (s.horizon, s.seed, s.retry_bound) == (10, 0, 3)

    # every optional key left out, and numbers written as ints
    doc = minimal_doc()
    del doc["holarchy"][0]["capabilities"], doc["holarchy"][4]["representative"]
    del doc["activities"][0]["required_data"], doc["activities"][0]["duration"]
    del doc["policy"]["strength_increment"], doc["policy"]["failure_injections"]
    doc["environment"] += [
        {"topic": "knock", "injection_soc": 3, "process": {"kind": "periodic", "period": 4}},
        {"topic": "knock", "injection_soc": 4, "process": {"kind": "poisson", "rate": 2}},
    ]
    s = scenario_from_dict(doc)
    assert s.holons[0] == Holon(id=0, kind=atomic)
    # the lowest member stands in for a representative left out
    assert s.holons[4].representative == 2
    (activity,) = s.activities.activities
    assert activity.duration == 1 and activity.required_data == frozenset()
    assert s.policy.failure_injections == ()
    periodic, poisson = s.sources[1].process, s.sources[2].process
    assert periodic == PeriodicProcess(period=4, offset=0)
    assert poisson == PoissonProcess(rate=2.0) and type(poisson.rate) is float


def test_strength_increment_is_accepted_and_has_no_effect():
    doc = json.loads((SCENARIOS / "promotion.json").read_text())
    del doc["policy"]["strength_increment"]
    without = write_trace(run_scenario(scenario_from_dict(doc))[0])
    for value in (0, 0.5, 7):
        doc["policy"]["strength_increment"] = value
        assert write_trace(run_scenario(scenario_from_dict(doc))[0]) == without
    doc["policy"]["strength_increment"] = -1
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "policy.strength_increment" in str(err.value)


def test_load_rejects_broken_json():
    with pytest.raises(ParseError) as err:
        load_scenario("{not json")
    assert "line 1" in str(err.value)


@pytest.mark.parametrize(
    "mutate,needle",
    [
        (lambda d: d.update(extra=1), "unknown keys"),
        (lambda d: d.pop("policy"), "missing keys"),
        (lambda d: d["holarchy"][0].update(color="red"), "holarchy[0]"),
        (lambda d: d["holarchy"][2].update(capabilities=[0]), "holarchy[2]"),
        (lambda d: d["activities"][0].update(id=-1), "activities[0].id"),
        (lambda d: d["activities"][0].update(required_roles=[9]), "required_roles"),
        (lambda d: d["activities"][0].update(duration=0), "duration"),
        (lambda d: d["environment"][0].update(topic="nobody"), "environment[0].topic"),
        (lambda d: d["environment"][0].update(injection_soc=0), "injection_soc"),
        (lambda d: d["environment"][0].update(injection_soc=77), "injection_soc"),
        (lambda d: d["environment"][0]["process"].update(kind="weird"), "process.kind"),
        (lambda d: d["policy"].update(permanentify_threshold=0), "permanentify_threshold"),
        (lambda d: d["policy"]["failure_injections"].append({"activity": 5, "start": 0, "stop": 1}), "failure_injections[0]"),
        (lambda d: d.update(seed=-1), "seed"),
        (lambda d: d.update(seed=1 << 64), "seed"),
        (lambda d: d.update(horizon=True), "horizon"),
        (lambda d: d.update(roles=[]), "roles"),
    ],
)
def test_load_rejects_bad_documents(mutate, needle):
    doc = minimal_doc()
    mutate(doc)
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert needle in str(err.value)


def test_load_rejects_an_object_that_repeats_a_key():
    text = json.dumps(minimal_doc())
    for old, new, key in [
        ('"horizon": 10', '"horizon": 3, "horizon": 10', "horizon"),
        ('"kind": "atomic"', '"kind": "atomic", "kind": "atomic"', "kind"),
    ]:
        with pytest.raises(ParseError) as err:
            load_scenario(text.replace(old, new, 1))
        assert str(err.value) == f"duplicate key {key!r}"
    load_scenario(text)


def _object_text(keys):
    return "{" + ",".join(f'"{key}":0' for key in keys) + "}"


def test_both_readers_name_the_repeated_key_of_a_large_object_in_linear_time():
    # counting each key's occurrences over the whole list took 0.38 s to
    # refuse 5,000 keys with one repeat and 18.8 s for 40,000
    keys = [f"k{i}" for i in range(200_000)]
    keys.insert(150_000, "k123456")
    with pytest.raises(ParseError) as err:
        load_scenario(_object_text(keys))
    assert str(err.value) == "duplicate key 'k123456'"
    line = '{"kind":"Pruned","payload":' + _object_text(keys) + ',"tick":3}'
    with pytest.raises(MalformedTraceError) as err:
        parse_trace(line)
    assert str(err.value) == "line 1: duplicate key 'k123456'"
    # of two repeated keys, the one that comes first in the document is named
    with pytest.raises(ParseError) as err:
        load_scenario(_object_text(["a", "b", "b", "a"]))
    assert str(err.value) == "duplicate key 'a'"


def test_load_rejects_structural_breakage():
    doc = minimal_doc()
    doc["holarchy"][2]["members"] = [0, 0]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "holarchy" in str(err.value)


def test_a_hand_built_scenario_with_a_broken_structure_is_refused_when_it_is_made():
    scenario = load_scenario_file(str(SCENARIOS / "nine_actors.json"))
    # actor 3 is a member of SoC 11; SoC 10 lists it as well
    holons = tuple(
        node._replace(members=node.members + (3,)) if node.id == 10 else node for node in scenario.holons
    )
    with pytest.raises(ViolationError) as err:
        dataclasses.replace(scenario, holons=holons)
    assert err.value.violation.code == "MultipleParents"
    assert str(err.value) == "holon 3 is a member of both 10 and 11"


@pytest.mark.parametrize("soc", [3, 99], ids=["an_actor", "no_holon"])
def test_a_hand_built_scenario_must_inject_into_a_soc(soc):
    # such a run used to fail at its first arrival with a bare KeyError
    scenario = load_scenario_file(str(SCENARIOS / "nine_actors.json"))
    sources = (EventSource("alarm", injection_soc=soc, process=PeriodicProcess(5)),)
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(scenario, sources=sources)
    assert str(err.value) == f"environment[0].injection_soc: no composite holon {soc}; events are published to SoCs"


def policy_with_window(scenario, window):
    return {"policy": dataclasses.replace(scenario.policy, failure_injections=(window,))}


# each used to be taken: a retry bound of -1 closed a failed attempt with
# final false and dropped the request, so unresolved_requests read 0; a
# topic no activity uses raised CanonError at its first arrival; and such a
# failure window never applied
@pytest.mark.parametrize(
    "change,message",
    [
        (lambda s: {"retry_bound": -1}, "retry_bound: must be at least 0, got -1"),
        (lambda s: {"horizon": -1}, "horizon: must be at least 0, got -1"),
        (lambda s: {"horizon": (1 << 53) + 1}, "horizon: must be at most 9007199254740992, got 9007199254740993"),
        (lambda s: {"seed": -1}, "seed: must be at least 0, got -1"),
        (lambda s: {"seed": 1 << 64}, "seed: must be at most 18446744073709551615, got 18446744073709551616"),
        (lambda s: {"seed": True}, "seed: expected an integer, got True"),
        (
            lambda s: {"sources": (EventSource("nobody_listens", injection_soc=9, process=PoissonProcess(0.2)),)},
            "environment[0].topic: topic 'nobody_listens' is not used by any activity",
        ),
        (
            lambda s: policy_with_window(s, FailureWindow(0, 50, 10)),
            "policy.failure_injections[0]: stop 10 precedes start 50",
        ),
        (
            lambda s: policy_with_window(s, FailureWindow(77, 0, 100)),
            "policy.failure_injections[0].activity: no activity with id 77",
        ),
    ],
    ids=[
        "negative_retry_bound",
        "negative_horizon",
        "horizon_past_2_53",
        "negative_seed",
        "seed_past_2_64",
        "boolean_seed",
        "unused_topic",
        "window_stops_early",
        "window_of_no_activity",
    ],
)
def test_a_hand_built_scenario_is_held_to_the_loaders_rules(change, message):
    scenario = load_scenario_file(str(SCENARIOS / "nine_actors.json"))
    with pytest.raises(ValidationError) as err:
        dataclasses.replace(scenario, **change(scenario))
    assert str(err.value) == message


def test_a_hand_built_scenario_takes_every_seed_the_schema_allows():
    scenario = load_scenario_file(str(SCENARIOS / "nine_actors.json"))
    assert [dataclasses.replace(scenario, seed=seed).seed for seed in (0, (1 << 64) - 1)] == [0, (1 << 64) - 1]


def test_a_scenario_is_checked_once_however_it_is_made(monkeypatch):
    checks = 0
    check = holarchy._structure_violations

    def counted(*args):
        nonlocal checks
        checks += 1
        return check(*args)

    monkeypatch.setattr(holarchy, "_structure_violations", counted)
    scenario = load_scenario_file(str(SCENARIOS / "nine_actors.json"))
    assert checks == 1
    # a run builds its holarchy from what the check kept
    Simulation(scenario, debug=False).run()
    Simulation(scenario, seed=7, debug=False).run()
    assert checks == 1
    # a scenario made by hand is a new object, checked once in its turn
    other = dataclasses.replace(scenario, seed=7)
    assert checks == 2
    Simulation(other, debug=False).run()
    assert checks == 2
    # a debug run still audits the rules after every tick
    sim = Simulation(other, debug=True)
    sim.step()
    assert checks == 3


# what an edit may put in place of a leaf
LEAF_VALUES = [None, True, -1, 0, 2.0, 1.5, "x", [], {}, 1 << 64]
BASE_DOCS = [minimal_doc()] + [json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))]


def _slots(value):
    """(container, key) for every entry of every object and array in value."""
    entries = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in list(entries):
        yield value, key
        yield from _slots(child)


def _edit(doc, rng):
    slots = list(_slots(doc))
    edit = rng.choice(["drop", "add", "replace"])
    if edit == "drop":
        keyed = [(c, k) for c, k in slots if isinstance(c, dict)]
        if keyed:
            container, key = rng.choice(keyed)
            del container[key]
    elif edit == "add":
        rng.choice([doc] + [c[k] for c, k in slots if isinstance(c[k], dict)])["unexpected"] = 1
    else:
        leaves = [(c, k) for c, k in slots if not isinstance(c[k], (dict, list))]
        if leaves:
            container, key = rng.choice(leaves)
            container[key] = copy.deepcopy(rng.choice(LEAF_VALUES))


@functools.cache
def strict_validator():
    """jsonschema's validator for the shipped schema, taking only an ``int``,
    not a ``bool``, for an integer: by default it takes ``2.0`` too."""
    import jsonschema

    base = jsonschema.Draft202012Validator
    checker = base.TYPE_CHECKER.redefine("integer", lambda _, value: type(value) is int)
    return jsonschema.validators.extend(base, type_checker=checker)(SCHEMA)


# Edits come from a hypothesis-driven Random, so every slot is equally likely;
# most edited documents break a rule both sides see, and at 300 examples a
# loader that took True for an integer still passed now and then.
@settings(max_examples=600, deadline=None)
@given(st.sampled_from(range(len(BASE_DOCS))), st.integers(1, 3), st.randoms(use_true_random=False))
def test_loader_rejects_whatever_jsonschema_rejects(base, edits, rng):
    """The loader accepts a document or raises ValidationError, and never
    accepts one that jsonschema rejects; its compiled schema check raises
    exactly when jsonschema rejects."""
    doc = copy.deepcopy(BASE_DOCS[base])
    for _ in range(edits):
        _edit(doc, rng)
    valid = strict_validator().is_valid(doc)
    try:
        engine._check_scenario(doc)
    except engine._Invalid:
        assert not valid
    else:
        assert valid
    try:
        scenario_from_dict(doc)
    except ValidationError:
        return
    assert valid


class Int(int):
    pass


@pytest.mark.parametrize(
    ("holon", "key", "items", "message"),
    [
        (0, "capabilities", [True], "[0]: expected an integer, got True"),
        (0, "capabilities", [1.0], "[0]: expected an integer, got 1.0"),
        (0, "capabilities", [0, -1], "[1]: must be at least 0, got -1"),
        (0, "capabilities", [0, True, -1], "[1]: expected an integer, got True"),
        (0, "capabilities", [-1, 2.5], "[0]: must be at least 0, got -1"),
        (2, "members", [0, "1"], "[1]: expected an integer, got '1'"),
        (2, "members", [], ": must have at least 1 item(s), got 0"),
        (0, "capabilities", [1 << 64], None),
        (0, "capabilities", [Int(1), 0], None),
        (0, "capabilities", [], None),
    ],
)
def test_an_array_of_scalars_is_refused_at_its_first_bad_item(holon, key, items, message):
    doc = minimal_doc()
    doc["holarchy"][holon][key] = items
    if message is None:
        # array items have no maximum, and an int subclass is an int
        engine._check_scenario(doc)
        return
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == f"holarchy[{holon}].{key}{message}"


SCALAR_ITEMS = [
    {"type": "integer", "minimum": 0},
    {"type": "integer", "minimum": -3, "maximum": 3},
    {"type": "number", "minimum": 0, "maximum": 10},
    {"type": "number", "exclusiveMinimum": 0},
    {"type": "string"},
    {"const": "atomic"},
    {"const": 2},
]
ITEM_VALUES = st.one_of(
    st.integers(-5, 12),
    st.integers(-5, 12).map(Int),
    st.sampled_from([True, False, 1 << 64, -(1 << 64), "atomic", "x", None]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(SCALAR_ITEMS), st.lists(ITEM_VALUES, max_size=6), st.sampled_from([0, 2]))
@example(SCALAR_ITEMS[2], [1.0, math.nan], 0)
@example(SCALAR_ITEMS[2], [3, math.nan, 1], 0)
@example(SCALAR_ITEMS[2], [math.inf], 0)
@example(SCALAR_ITEMS[0], [True], 0)
@example(SCALAR_ITEMS[0], [1.0], 0)
@example(SCALAR_ITEMS[0], [Int(3), 2], 2)
def test_an_array_of_scalars_passes_exactly_when_each_of_its_items_does(items, value, least):
    # the array's C-level passes must accept what walking its items accepts,
    # NaN (which min and max pass over), bool, int subclasses and 1.0 among it
    array = engine._compile({"type": "array", "items": items, "minItems": least}, {})
    item = engine._compile(items, {})
    faults = []
    for i, element in enumerate(value):
        try:
            item(element)
        except engine._Invalid as exc:
            faults.append((exc.args[0], f"[{i}]"))
    if len(value) < least:
        faults.insert(0, (f"must have at least {least} item(s), got {len(value)}",))
    try:
        array(value)
    except engine._Invalid as exc:
        assert faults and exc.args == faults[0]
    else:
        assert not faults


def test_schema_compiler_refuses_unsupported_keywords():
    with pytest.raises(ValueError, match="pattern"):
        engine._compile({"type": "string", "pattern": "^a"}, {})
    with pytest.raises(ValueError, match="uniqueItems"):
        engine._compile({"type": "array", "items": {"type": "string"}, "uniqueItems": True}, {})
    with pytest.raises(ValueError, match="minItems"):
        engine._compile({"type": "string", "minItems": 1}, {})


def test_fixture_scenarios_load_and_match_schema():
    import importlib.resources

    import jsonschema

    schema = json.loads(
        importlib.resources.files("fso_sim").joinpath("schema/scenario.schema.json").read_text()
    )
    for path in sorted(SCENARIOS.glob("*.json")):
        doc = json.loads(path.read_text())
        jsonschema.validate(doc, schema)
        scenario_from_dict(doc)


def test_schema_rejects_what_the_loader_rejects():
    import jsonschema
    from importlib.resources import files

    schema = json.loads(files("fso_sim").joinpath("schema/scenario.schema.json").read_text())
    for mutate in (
        lambda d: d.update(extra=1),
        lambda d: d.pop("seed"),
        lambda d: d["policy"].update(permanentify_threshold=0),
        lambda d: d["environment"][0]["process"].update(kind="weird"),
    ):
        doc = minimal_doc()
        mutate(doc)
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, schema)


# -- the tick loop ------------------------------------------------------------


def test_busy_actor_forces_retry_after_dissolution():
    s = scenario_from_dict(minimal_doc())
    trace, metrics = run_scenario(s, debug=True)
    kinds = [(r.tick, r.kind) for r in trace]
    # knock 1: forms immediately; knock 2 arrives while busy, is parked,
    # and succeeds at t=3 when the first overlay dissolves
    assert (1, "SonFormed") in kinds
    assert (2, "RequestUnresolved") in kinds
    assert (3, "SonDissolved") in kinds
    assert (3, "SonFormed") in kinds
    dissolved_index = kinds.index((3, "SonDissolved"))
    formed_index = kinds.index((3, "SonFormed"))
    assert dissolved_index < formed_index
    assert metrics.sons_formed == 2
    assert metrics.unresolved_requests == 0
    assert metrics.mean_response_latency == 0.5


def test_no_retry_without_a_dissolution_even_if_possible():
    # two actors for one role: second knock could be staffed by actor 1,
    # but the first attempt fails only when no provider exists at all
    doc = minimal_doc()
    doc["holarchy"][1]["capabilities"] = [0]
    doc["activities"][0]["required_roles"] = [0, 0]
    trace, _ = run_scenario(scenario_from_dict(doc), debug=True)
    unresolved = [r for r in trace if r.kind == "RequestUnresolved"]
    assert unresolved, "second knock must park"
    retried = [r for r in unresolved if r.payload["attempt"] > 0]
    for r in retried:
        dissolutions = [d for d in trace if d.kind == "SonDissolved" and d.tick == r.tick]
        assert dissolutions, "retries happen only on dissolution ticks"


def test_retry_bound_zero_gives_up_immediately():
    doc = minimal_doc()
    doc["retry_bound"] = 0
    trace, metrics = run_scenario(scenario_from_dict(doc), debug=True)
    unresolved = [r for r in trace if r.kind == "RequestUnresolved"]
    assert len(unresolved) == 1
    assert unresolved[0].payload["final"] is True
    assert unresolved[0].payload["attempt"] == 0
    assert metrics.unresolved_requests == 1


def test_overlays_drain_past_the_horizon():
    doc = minimal_doc()
    doc["horizon"] = 2
    doc["environment"][0]["process"]["times"] = [1]
    trace, _ = run_scenario(scenario_from_dict(doc), debug=True)
    assert son_lifecycle_check(trace) == []
    dissolved = [r for r in trace if r.kind == "SonDissolved"]
    assert dissolved and dissolved[0].tick == 3  # one past the horizon


def test_parked_requests_can_form_overlays_on_drain_ticks():
    s = load_scenario_file(str(SCENARIOS / "nine_actors.json"))
    assert (s.seed, s.horizon) == (7, 60)
    trace, _ = run_scenario(s, debug=True)
    late = [(r.tick, r.kind, r.payload.get("son")) for r in trace if r.tick >= s.horizon]
    # SON 8 frees the actors request 9 was parked for, on the horizon tick
    assert late == [
        (60, "SonDissolved", 8),
        (60, "ExceptionRaised", None),
        (60, "SonFormed", 9),
        (63, "SonDissolved", 9),
    ]
    assert son_lifecycle_check(trace) == []


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_nothing_arrives_at_or_after_the_horizon_and_every_overlay_dissolves(path):
    s = load_scenario_file(str(path))
    for seed in (s.seed, 1, 4242):
        trace, _ = run_scenario(s, seed=seed)
        assert not [r for r in trace if r.tick >= s.horizon and r.kind in ("EventPublished", "ActivityTriggered")]
        assert son_lifecycle_check(trace) == [], seed


def test_a_request_is_attempted_on_its_trigger_tick_then_at_most_once_a_tick():
    shipped = [load_scenario_file(str(path)) for path in sorted(SCENARIOS.glob("*.json"))]
    runs = [(s, seed) for s in shipped for seed in (s.seed, 1, 4242)]
    runs += [(random_scenario(seed, horizon=300), None) for seed in range(40)]
    retried = 0
    for scenario, seed in runs:
        trace, _ = run_scenario(scenario, seed=seed)
        assert request_attempt_check(trace, scenario.retry_bound) == [], (scenario.seed, seed)
        retried += sum(1 for r in trace if r.kind == "RequestUnresolved" and r.payload["attempt"] > 0)
    assert retried > 100


def test_unresolvable_parked_requests_get_a_final_record():
    doc = minimal_doc()
    doc["activities"][0]["required_roles"] = [1]
    doc["holarchy"][1]["capabilities"] = []
    doc["environment"][0]["process"]["times"] = [1]
    trace, metrics = run_scenario(scenario_from_dict(doc), debug=True)
    finals = [r for r in trace if r.kind == "RequestUnresolved" and r.payload["final"]]
    assert len(finals) == 1
    assert metrics.unresolved_requests == 1


def test_events_on_one_tick_resolve_in_activity_id_order():
    doc = minimal_doc()
    doc["activities"].append(
        {"id": 1, "trigger_topics": ["knock"], "required_roles": [1], "required_data": [], "duration": 1}
    )
    doc["environment"][0]["process"]["times"] = [1]
    trace, _ = run_scenario(scenario_from_dict(doc), debug=True)
    triggered = [r.payload["activity"] for r in trace if r.kind == "ActivityTriggered"]
    assert triggered == [0, 1]
    requests = [r.payload["request"] for r in trace if r.kind == "ActivityTriggered"]
    assert requests == sorted(requests)


def test_earlier_resolution_consumes_actors_first():
    # both activities want the only helper; the lower id wins the actor
    doc = minimal_doc()
    doc["activities"].append(
        {"id": 1, "trigger_topics": ["knock"], "required_roles": [0], "required_data": [], "duration": 1}
    )
    doc["retry_bound"] = 0
    doc["environment"][0]["process"]["times"] = [1]
    trace, _ = run_scenario(scenario_from_dict(doc), debug=True)
    formed = [r.payload["activity"] for r in trace if r.kind == "SonFormed"]
    unresolved = [r.payload["activity"] for r in trace if r.kind == "RequestUnresolved"]
    assert formed == [0]
    assert unresolved == [1]


def count_staffing(monkeypatch):
    """From the next run on, record each attempt as (hops it scanned, whether
    it formed a SON). A fresh resolve reads its SoC's role atoms once per
    hop, so an attempt that read none was answered from memory."""
    attempts = []
    atoms_by_role, attempt = Holarchy.atoms_by_role, Simulation._attempt

    def counted_atoms_by_role(self, soc):
        attempts[-1][0] += 1
        return atoms_by_role(self, soc)

    def counted_attempt(self, r):
        attempts.append([0, False])
        sons = self._son_seq
        parked = attempt(self, r)
        attempts[-1][1] = self._son_seq > sons
        return parked

    monkeypatch.setattr(Holarchy, "atoms_by_role", counted_atoms_by_role)
    monkeypatch.setattr(Simulation, "_attempt", counted_attempt)
    return attempts


def test_a_repeated_attempt_is_answered_from_memory_staffed_or_failed(monkeypatch):
    attempts = count_staffing(monkeypatch)
    trace, _ = run_scenario(load_scenario_file(str(SCENARIOS / "nine_actors.json")), seed=4242, debug=False)
    from_memory = Counter(staffed for scans, staffed in attempts if scans == 0)
    assert from_memory[True] > 0 and from_memory[False] > 0
    assert hashlib.sha256(write_trace(trace).encode()).hexdigest() == FIXTURES[("nine_actors.json", 4242)]


# 1,370 and 85 attempts measured at seed 4242. Memo entries that kept each
# role's best s idle actors, not just those first fit takes, answered 1,048
# and 70
@pytest.mark.parametrize(("workload", "floor"), [("promotion_churn", 1300), ("escalation_512", 80)])
def test_the_memory_answers_at_least_its_measured_share_of_attempts(workload, floor, monkeypatch, tmp_path):
    sim = Simulation(workload_scenario(workload, 4242, tmp_path), debug=False)
    attempts = count_staffing(monkeypatch)
    sim.run()
    assert sum(scans == 0 for scans, _ in attempts) >= floor


def data_gated_doc(ctx_times):
    """Activity 0 needs the helper and the data topic ``ctx``, published at
    its start SoC at ``ctx_times``. Activity 1 keeps the fixer busy from
    tick 1 to tick 3, so request 0, short of ``ctx`` on tick 1, is retried
    on tick 3 with the same helper idle."""
    doc = minimal_doc()
    doc["activities"][0].update(required_data=["ctx"], duration=1)
    doc["activities"].append(
        {"id": 1, "trigger_topics": ["fix"], "required_roles": [1], "required_data": [], "duration": 2}
    )
    doc["environment"] = [
        {"topic": "knock", "injection_soc": 2, "process": {"kind": "scripted", "times": [1]}},
        {"topic": "fix", "injection_soc": 3, "process": {"kind": "scripted", "times": [1]}},
        {"topic": "ctx", "injection_soc": 2, "process": {"kind": "scripted", "times": ctx_times}},
    ]
    return doc


def test_a_data_topic_new_to_the_chain_empties_the_memory(monkeypatch):
    attempts = count_staffing(monkeypatch)
    trace, _ = run_scenario(scenario_from_dict(data_gated_doc([])), debug=False)
    retry = [r for r in trace if r.tick == 3 and r.payload.get("request") == 0]
    assert [r.kind for r in retry] == ["ExceptionRaised", "RequestUnresolved"]
    assert retry[-1].payload["missing"] == (DATA_MISSING,)
    # the retry saw the same idle helper and no new topic: answered from memory
    assert [scans > 0 for scans, _ in attempts] == [True, True, False]

    # ctx reaches the start SoC on the dissolve tick, before the retry phase
    trace, _ = run_scenario(scenario_from_dict(data_gated_doc([3])), debug=False)
    retry = [r for r in trace if r.tick == 3 and r.payload.get("request") == 0]
    assert [r.kind for r in retry] == ["SonFormed"]
    assert retry[0].payload["members"] == ((0, 0),)


@pytest.mark.parametrize("held", [0, 1])
def test_an_actor_freed_alone_is_seen_by_the_retry(held):
    # activity 1 holds the only actor of role ``held`` over ticks 0-2, so
    # activity 0, which needs both actors, fails on tick 1; on tick 2 that
    # actor alone comes free, and the retry must not replay the failure
    doc = minimal_doc()
    doc["activities"] = [
        {"id": 0, "trigger_topics": ["knock"], "required_roles": [0, 1], "required_data": [], "duration": 1},
        {"id": 1, "trigger_topics": ["hold"], "required_roles": [held], "required_data": [], "duration": 2},
    ]
    doc["environment"] = [
        {"topic": "hold", "injection_soc": 4, "process": {"kind": "scripted", "times": [0]}},
        {"topic": "knock", "injection_soc": 4, "process": {"kind": "scripted", "times": [1]}},
    ]
    trace, _ = run_scenario(scenario_from_dict(doc), debug=False)
    assert [(r.tick, r.kind) for r in trace if r.payload.get("request") == 1] == [
        (1, "ActivityTriggered"),
        (1, "RequestUnresolved"),
        (2, "SonFormed"),
    ]


def test_debug_mode_resolves_every_answer_from_memory_again():
    # once with the staffed answers in memory corrupted, once with the failed
    for staffed in (True, False):
        scenario = load_scenario_file(str(SCENARIOS / "nine_actors.json"))
        sim = Simulation(scenario, seed=4242, debug=True)
        # wait at most to the horizon plus the longest overlay's life, so a
        # memo that never keeps the wanted answer fails here instead of
        # stepping past the horizon for ever
        last = sim.horizon + max(a.duration for a in scenario.activities.activities)
        while not any(staffed in known for known in sim._memo.values()):
            assert sim.clock <= last, f"no {'staffed' if staffed else 'failed'} answer was kept by tick {last}"
            sim.step()
        for known in sim._memo.values():
            if staffed in known:
                answer, *reads = known[staffed]
                known[staffed] = (dataclasses.replace(answer, resolved_soc=-1), *reads)
        with pytest.raises(InvariantViolationError, match="answered from memory"):
            sim.run()


def test_debug_mode_reads_environment_variable(monkeypatch):
    s = scenario_from_dict(minimal_doc())
    monkeypatch.setenv("FSO_SIM_DEBUG", "1")
    assert Simulation(s).debug is True
    monkeypatch.delenv("FSO_SIM_DEBUG")
    assert Simulation(s).debug is False


def test_seed_and_horizon_overrides():
    s = load_scenario_file(str(SCENARIOS / "nine_actors.json"))
    sim = Simulation(s, seed=99, horizon=30)
    assert sim.seed == 99
    assert sim.horizon == 30
    sim.run()
    assert all(r.tick <= 30 + 10 for r in sim.trace)


@pytest.mark.parametrize(
    "horizon,message",
    [
        (-1, "horizon: must be at least 0, got -1"),
        ((1 << 53) + 1, "horizon: must be at most 9007199254740992, got 9007199254740993"),
    ],
    ids=["negative", "past_2_53"],
)
def test_the_horizon_override_is_held_to_the_scenarios_range(horizon, message):
    s = load_scenario_file(str(SCENARIOS / "minimal.json"))
    with pytest.raises(ValidationError) as err:
        Simulation(s, horizon=horizon)
    assert str(err.value) == message
    assert [Simulation(s, horizon=h).horizon for h in (0, 1 << 53)] == [0, 1 << 53]


# each used to be taken: the arrivals drew on the seed modulo 2**64, so -1
# wrote the trace of seed 2**64 - 1 and 2**64 that of seed 0
@pytest.mark.parametrize(
    "seed,message",
    [
        (-1, "seed: must be at least 0, got -1"),
        (1 << 64, "seed: must be at most 18446744073709551615, got 18446744073709551616"),
        (True, "seed: expected an integer, got True"),
    ],
    ids=["negative", "past_2_64", "boolean"],
)
def test_the_seed_override_is_held_to_the_scenarios_range(seed, message):
    s = load_scenario_file(str(SCENARIOS / "nine_actors.json"))
    with pytest.raises(ValidationError) as err:
        Simulation(s, seed=seed)
    assert str(err.value) == message
    assert [Simulation(s, seed=seed).seed for seed in (0, (1 << 64) - 1)] == [0, (1 << 64) - 1]


def test_an_idle_step_runs_evolution_only_when_a_ready_team_is_free(monkeypatch):
    doc = minimal_doc()
    doc["environment"][0]["process"]["times"] = [5]
    doc["policy"]["permanentify_threshold"] = 1
    sim = Simulation(scenario_from_dict(doc))
    passes = []
    permanentify = engine.maybe_permanentify

    def counted(ledger, h):
        passes.append(sim.clock)
        return permanentify(ledger, h)

    monkeypatch.setattr(engine, "maybe_permanentify", counted)
    # SoC 2 lists exactly actor 0, so a team of actor 0 alone waits
    record_outcome(sim.ledger, canon.Son(0, 0, ((0, 0),), (0,), 0), Outcome.SUCCESS, 0, sim.scenario.policy)
    blocked = SonSignature(0, (0,))
    assert sim.ledger.ready == {blocked}
    sim.step()
    assert passes == [] and sim.trace == [] and sim.ledger.ready == {blocked}
    # no SoC lists actors 0 and 1 alone, so the next idle tick promotes them
    record_outcome(sim.ledger, canon.Son(1, 0, ((0, 0), (1, 1)), (0, 1), 1), Outcome.SUCCESS, 1, sim.scenario.policy)
    sim.step()
    assert passes == [1] and sim.ledger.ready == {blocked}
    assert [(r.kind, r.payload["members"]) for r in sim.trace] == [("Permanentified", (0, 1))]


def test_evolution_runs_only_on_ticks_with_something_due(monkeypatch, tmp_path):
    scenario = workload_scenario("promotion_churn", 4242, tmp_path)
    passes = idle = 0
    permanentify = engine.maybe_permanentify

    def counted(ledger, h):
        nonlocal passes, idle
        passes += 1
        idle += not ledger.recheck and not promotion_due(ledger, h)
        return permanentify(ledger, h)

    monkeypatch.setattr(engine, "maybe_permanentify", counted)
    sim = Simulation(scenario, debug=False)
    sim.run()
    assert any(r.kind == "Permanentified" for r in sim.trace)
    assert idle == 0
    # 353 passes in 3,005 ticks; a pass on every tick with a ready signature,
    # blocked or not, made 2,697
    assert passes <= 400


def calls_during(fn):
    """What ``fn()`` returns, and the Python-level calls it made."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    # a collection could run other code's finalizers and callbacks mid-count
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return out, calls


def calls_per_record(sim: Simulation) -> float:
    """Python-level calls per trace record over ``sim.run()``."""
    _, calls = calls_during(sim.run)
    return calls / len(sim.trace)


# measured on Python 3.11 at 3.67, 4.78 and 4.49 calls per record; a ledger
# key sorted per dissolve through SonSignature.of made 3.82, 4.97 and 4.67.
# Against earlier readings of 3.82, 5.38 and 4.67, a best-s pool and a
# matching call on every hop made 3.83, 5.76 and 5.10; one
# role-atoms call per role per escalation hop as well made 3.83, 6.41 and 5.52; a
# TraceRecord built per record as well made 4.83, 7.45 and 6.79; a
# keyword-argument helper frame per record as well made 5.83, 8.45 and
# 7.79; a frozen dataclass ledger key, a Python-level sort key per service
# entry, an evolution pass on every tick with a ready signature and a
# generator in the run loop made 11.44 and 15.41 on the first two
@pytest.mark.parametrize(
    ("workload", "budget"), [("nine_actors.json", 4.0), ("promotion_churn", 5.3), ("escalation_512", 4.9)]
)
def test_a_run_stays_within_its_budget_of_python_calls_per_trace_record(workload, budget, tmp_path):
    if workload.endswith(".json"):
        scenario = load_scenario_file(str(SCENARIOS / workload))
        sim = Simulation(scenario, seed=1, horizon=20_000, debug=False)
    else:
        sim = Simulation(workload_scenario(workload, 4242, tmp_path), debug=False)
    assert calls_per_record(sim) <= budget


def test_loading_and_setting_up_a_run_stays_within_its_budget_of_python_calls_per_holon(tmp_path, monkeypatch):
    # measured on Python 3.11 at 8.70 calls per holon (5,087 for 585
    # holons) and 8.33 (39,007 for 4,681), loading included, so a set-up
    # step that grows faster than the holon count fails on the larger tree.
    # A constructor frame per holon and a schema checker per scalar property
    # and array item made 14.27 and 13.69; checking the structure in the
    # loader and again in Simulation, an Enum call per holon kind, a
    # dataclass constructor per service entry and a walk from the root for
    # the idle set as well made 23.66 (13,840 for 585)
    for levels, holons in ((3, 585), (4, 4681)):
        monkeypatch.setitem(_workloads().PARAMS["escalation_512"], "levels", levels)
        path = workload_file("escalation_512", 4242, tmp_path)
        sim, calls = calls_during(lambda: Simulation(load_scenario_file(path), debug=False))
        assert len(sim.scenario.holons) == holons
        assert calls / holons <= 9.57


# -- traces and metrics --------------------------------------------------------


def test_trace_round_trip_preserves_records():
    s = scenario_from_dict(minimal_doc())
    trace, _ = run_scenario(s)
    text = write_trace(trace)
    # arrays are tuples in memory and lists when read back: compare lines
    assert write_trace(parse_trace(text)) == text
    for line in text.splitlines():
        doc = json.loads(line)
        assert set(doc) == {"tick", "kind", "payload"}


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_trace_arrays_are_the_engines_tuples_and_fold_as_read_back(path):
    # a payload that holds no list is one the cycle collector can stop walking
    def arrays(value):
        if isinstance(value, (list, tuple)):
            yield value
            for v in value:
                yield from arrays(v)

    sim = Simulation(load_scenario_file(str(path)), seed=1)
    sim.run()
    found = [a for r in sim.trace for v in r.payload.values() for a in arrays(v)]
    assert found, "expected arrays in this trace"
    assert {type(a) for a in found} == {tuple}
    assert report(sim.trace) == report(parse_trace(write_trace(sim.trace)))


def test_replayed_son_formed_records_share_their_answers_spanned_socs():
    # an answer replayed from memory writes the sorted tuple its fresh
    # resolve built, so no attempt sorts the spanned SoCs again
    sim = Simulation(load_scenario_file(str(SCENARIOS / "nine_actors.json")), seed=4242, horizon=2000)
    sim.run()
    spans = [r.payload["spanned_socs"] for r in sim.trace if r.kind == "SonFormed"]
    assert len(spans) > 100
    assert all(type(s) is tuple and list(s) == sorted(set(s)) for s in spans)
    assert len({id(s) for s in spans}) < len(spans)


def test_trace_contains_no_floats():
    def no_floats(value):
        if isinstance(value, bool):
            return True
        if isinstance(value, float):
            return False
        if isinstance(value, dict):
            return all(no_floats(v) for v in value.values())
        if isinstance(value, (list, tuple)):
            return all(no_floats(v) for v in value)
        return True

    trace, _ = run_scenario(random_scenario(5, horizon=120))
    assert trace, "expected activity in this scenario"
    assert all(no_floats(r.payload) and no_floats(r.tick) for r in trace)


def test_parse_trace_rejects_garbage():
    with pytest.raises(MalformedTraceError):
        parse_trace("{broken\n")
    with pytest.raises(MalformedTraceError):
        parse_trace('{"tick": 1, "kind": "Nope", "payload": {}}\n')
    with pytest.raises(MalformedTraceError):
        parse_trace('{"tick": -1, "kind": "SonFormed", "payload": {}}\n')
    with pytest.raises(MalformedTraceError):
        parse_trace('{"tick": 1, "kind": "SonFormed"}\n')


def test_parse_trace_ends_records_at_line_feeds_only():
    # U+2028 and NEL are line breaks to str.splitlines, not to JSON text
    rec = '{"kind":"EventPublished","payload":{"soc":1,"source":0,"topic":"a\u2028b\x85c"},"tick":0}'
    records = parse_trace(rec + "\r\n\r\n" + rec + "\n")
    assert [r.payload["topic"] for r in records] == ["a\u2028b\x85c"] * 2
    with pytest.raises(MalformedTraceError, match="^line 3: "):
        parse_trace(rec + "\n\n{broken\n")
    # JSON whitespace is space, tab, CR and LF: a line of any other blank
    # is malformed, not skipped
    for blank in ("\u00a0", "\u3000", "\u2028", "\f", "\x1c"):
        with pytest.raises(MalformedTraceError, match="^line 2: "):
            parse_trace(rec + "\n" + blank + "\n" + rec + "\n")


def test_parse_trace_rejects_an_object_that_repeats_a_key():
    good = '{"kind":"Pruned","payload":{"members":[0],"parent":1,"soc":2},"tick":3}\n'
    assert parse_trace(good) == [TraceRecord(3, "Pruned", {"members": [0], "parent": 1, "soc": 2})]
    for bad, key in [
        (good.replace('"tick":3', '"tick":3,"tick":4'), "tick"),
        (good.replace('"soc":2', '"soc":2,"soc":5'), "soc"),
    ]:
        with pytest.raises(MalformedTraceError) as err:
            parse_trace(good + bad)
        assert str(err.value) == f"line 2: duplicate key {key!r}"


def test_parse_trace_rejects_the_non_standard_numbers():
    # the scenario loader refuses them too; written back out, they would be
    # bare tokens, and the trace would not be JSON
    good = '{"kind":"Pruned","payload":{"members":[0],"parent":1,"soc":2},"tick":3}\n'
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(MalformedTraceError) as err:
            parse_trace(good + good.replace('"soc":2', f'"soc":{token}'))
        assert str(err.value) == f"line 2: {token} is not a JSON number"


def test_parse_trace_rejects_a_number_beyond_a_floats_range():
    # JSON reads 1e400 as infinity without a token, so no parse_constant
    # hook sees it; written back out, it would be a bare Infinity
    good = '{"kind":"Pruned","payload":{"members":[0],"parent":1,"soc":2},"tick":3}\n'
    for literal in ("1e400", "-1e400", "1.5e309"):
        with pytest.raises(MalformedTraceError) as err:
            parse_trace(good + good.replace('"soc":2', f'"soc":{literal}'))
        assert str(err.value) == f"line 2: {literal} is beyond a float's range"
    # a float in range is no trace value either, but the fold reads no soc
    assert parse_trace(good.replace('"soc":2', '"soc":2.5'))[0].payload["soc"] == 2.5


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_a_valid_trace_holds_no_float_literal(path, monkeypatch):
    # TRACE_FIELDS' values are ints, strings, booleans and arrays of ints or
    # pairs, so reading a trace back never calls the parse_float hook
    def called(literal):
        raise AssertionError(f"parse_float called on {literal}")

    monkeypatch.setattr(fso_sim.trace, "_finite_float", called)
    for seed in (1, 4242):
        sim = Simulation(load_scenario_file(str(path)), seed=seed)
        sim.run()
        assert not any(isinstance(v, float) for v in sim._values)
        text = write_trace(sim.trace)
        assert write_trace(parse_trace(text)) == text


def test_report_folds_match_independent_fold():
    for seed in range(4):
        trace, metrics = run_scenario(random_scenario(seed, horizon=150))
        assert metrics.to_dict() == fold_metrics(trace)
        again = report(parse_trace(write_trace(trace)))
        assert again == metrics


def fold_runs():
    """The shipped scenarios at seeds 1 and 4242, generator seeds 0-39 and
    the shared-member-list family, as (label, scenario, seed) triples."""
    for path in sorted(SCENARIOS.glob("*.json")):
        for seed in (1, 4242):
            yield f"{path.stem}-{seed}", load_scenario_file(str(path)), seed
    for seed in range(40):
        yield f"generated-{seed}", random_scenario(seed), None
    for seed in range(40):
        yield f"shared-members-{seed}", scenario_from_dict(shared_member_list_scenario_dict(seed)), None


def test_a_runs_metrics_are_reports_fold_of_its_trace_as_held_and_as_read_back():
    # report rebuilds each record's row and folds it with run()'s own fold,
    # so the two agree when the rebuilt rows fold as the run's do: from
    # records as held, as read back, and as an iterator read once
    for label, scenario, seed in fold_runs():
        sim = Simulation(scenario, seed=seed, debug=False)
        metrics = sim.run()
        trace = sim.trace
        assert metrics == report(trace), label
        assert metrics == report(parse_trace(write_trace(trace))), label
        assert metrics == report(iter(trace)), label


def test_run_and_report_share_one_fold(monkeypatch):
    # both look the fold up in fso_sim.trace, so one patch there sees both;
    # run() hands it the engine's own list, not values rebuilt from records
    folded = []
    fold_rows = fso_sim.trace._fold_rows

    def counted(values):
        folded.append(values)
        return fold_rows(values)

    monkeypatch.setattr(fso_sim.trace, "_fold_rows", counted)
    sim = Simulation(load_scenario_file(str(SCENARIOS / "nine_actors.json")), seed=4242, horizon=2000)
    metrics = sim.run()
    assert len(folded) == 1 and folded[0] is sim._values
    assert report(sim.trace) == metrics
    assert len(folded) == 2


def test_a_run_builds_no_trace_record(monkeypatch):
    def refused(*args):
        raise AssertionError("run() built a TraceRecord")

    sim = Simulation(load_scenario_file(str(SCENARIOS / "nine_actors.json")), seed=4242, horizon=2000, debug=False)
    monkeypatch.setattr(fso_sim.trace, "TraceRecord", refused)
    sim.run()
    monkeypatch.undo()
    assert len(sim.trace) > 1000


def test_a_runs_trace_is_one_flat_list_of_values_that_sets_off_no_collector_pass():
    scenario = load_scenario_file(str(SCENARIOS / "nine_actors.json"))
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    sim = Simulation(scenario, horizon=20000, debug=False)
    gc.collect()
    gc.callbacks.append(count)
    try:
        sim.run()
    finally:
        gc.callbacks.remove(count)
    values = sim._values
    assert type(values) is list
    assert {type(value) for value in values} == {int, str, bool, tuple}
    records = parse_trace(write_trace(sim.trace))
    assert len(records) > 20000
    assert len(values) == sum(2 + len(TRACE_FIELDS[r.kind]) for r in records)
    # a tuple per record, which the collector counts until a pass untracks
    # it, set off 35 passes here on Python 3.10-3.12; the list sets off none
    assert not passes, passes


def test_report_of_empty_trace_is_all_zero():
    m = report([])
    assert m == Metrics()
    assert m.final_partition_sizes == (0, 0)


def test_report_rejects_incomplete_records():
    with pytest.raises(MalformedTraceError):
        report([TraceRecord(tick=0, kind="SonFormed", payload={})])


# each kind's payload keys, listed here apart from the engine's own table of
# them, so a key misspelt or out of place there does not pass unseen
PAYLOAD_KEYS = {
    "EventPublished": {"soc", "source", "topic"},
    "ActivityTriggered": {"activity", "request", "soc", "topic"},
    "ExceptionRaised": {"activity", "request", "from_soc", "to_soc", "hop", "missing"},
    "SonFormed": {
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
    },
    "SonDissolved": {"son", "activity", "outcome", "members", "l_size", "r_size"},
    "RequestUnresolved": {"activity", "request", "origin_soc", "attempt", "final", "missing", "triggered_at"},
    "Permanentified": {"soc", "parent", "members", "activity"},
    "Pruned": {"soc", "parent", "members"},
}


def test_every_record_carries_exactly_the_payload_keys_of_its_kind():
    assert PAYLOAD_KEYS.keys() == set(TRACE_KINDS)
    runs = [(load_scenario_file(str(path)), 1) for path in sorted(SCENARIOS.glob("*.json"))]
    runs += [(random_scenario(seed), None) for seed in range(40)]
    seen = Counter()
    for scenario, seed in runs:
        trace, _ = run_scenario(scenario, seed=seed)
        for r in trace:
            assert r.payload.keys() == PAYLOAD_KEYS[r.kind], r
        seen.update(r.kind for r in trace)
    # every emission site wrote at least one of the records checked
    assert seen.keys() == PAYLOAD_KEYS.keys()


@functools.cache
def generated_trace(seed: int) -> tuple[TraceRecord, ...]:
    return tuple(run_scenario(random_scenario(seed), debug=False)[0])


def fold(f, trace):
    try:
        return f(trace)
    except MalformedTraceError as exc:
        return f"MalformedTraceError: {exc}"


# the kinds whose fields the fold checks come first: Hypothesis draws more
# often from the front of a list, and shrinks toward it
MUTATED_KINDS = ("SonFormed", "SonDissolved", "RequestUnresolved", *TRACE_KINDS)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_report_agrees_with_the_reference_fold_on_a_trace_with_one_bad_record(data):
    trace = list(generated_trace(data.draw(st.integers(0, 39), label="seed")))
    present = {r.kind for r in trace}
    kind = data.draw(st.sampled_from([k for k in dict.fromkeys(MUTATED_KINDS) if k in present]), label="kind")
    i = data.draw(st.sampled_from([i for i, r in enumerate(trace) if r.kind == kind]), label="record")
    payload = dict(trace[i].payload)
    # two faults in one record tell apart the orders the fields are checked in
    for step in range(data.draw(st.integers(1, 2), label="faults")):
        # a huge int, as written by an earlier fault, has no float to turn into
        ints = sorted(key for key, value in payload.items() if type(value) is int and abs(value) < 2**63)
        mutations = ["drop a key", "unknown kind"] if payload else ["unknown kind"]
        if ints:
            mutations += ["int to bool", "int to str", "int to float", "huge int"]
        if "final" in payload:
            mutations.append("final to 0 or 1")
        mutation = data.draw(st.sampled_from(mutations), label=f"mutation {step}")
        if mutation == "drop a key":
            del payload[data.draw(st.sampled_from(sorted(payload)), label=f"key {step}")]
        elif mutation == "unknown kind":
            kind = data.draw(st.sampled_from(["Nope", "sonformed", "SonFormed ", ""]), label=f"kind {step}")
        elif mutation == "final to 0 or 1":
            payload["final"] = int(payload["final"])
        else:
            key = data.draw(st.sampled_from(ints), label=f"key {step}")
            payload[key] = {
                "int to bool": bool(payload[key]),
                "int to str": str(payload[key]),
                "int to float": float(payload[key]),
                # too large for a float, so a mean over it overflows
                "huge int": 10**400,
            }[mutation]
    trace[i] = TraceRecord(trace[i].tick, kind, payload)
    assert fold(report, trace) == fold(reference_report, trace)


def test_triggers_reconcile_with_outcomes():
    for seed in (2, 3, 4, 9):
        trace, _ = run_scenario(random_scenario(seed, horizon=200), debug=True)
        triggered = sum(1 for r in trace if r.kind == "ActivityTriggered")
        formed = sum(1 for r in trace if r.kind == "SonFormed")
        finals = sum(1 for r in trace if r.kind == "RequestUnresolved" and r.payload["final"])
        assert triggered == formed + finals


def test_partition_sizes_replay_from_trace():
    for seed in (0, 1, 6):
        scenario = random_scenario(seed, horizon=150)
        sim = Simulation(scenario, debug=True)
        sim.run()
        atoms = len(sim.holarchy.atoms())
        assert replay_partition(sim.trace, atoms) == []


def test_promotion_and_prune_appear_in_trace():
    s = load_scenario_file(str(SCENARIOS / "pruning.json"))
    trace, metrics = run_scenario(s, debug=True)
    promoted = [r for r in trace if r.kind == "Permanentified"]
    pruned = [r for r in trace if r.kind == "Pruned"]
    assert len(promoted) == 1
    assert len(pruned) == 1
    assert promoted[0].payload["members"] == (0, 1)
    assert pruned[0].payload["soc"] == promoted[0].payload["soc"]
    assert metrics.permanentifications == 1
    assert metrics.prunings == 1
