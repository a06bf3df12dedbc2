"""Scenario loading, the tick loop, traces, and metrics."""

from __future__ import annotations

import copy
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fso_sim import engine
from fso_sim.canon import ResponseActivity
from fso_sim.engine import (
    MalformedTraceError,
    Metrics,
    ParseError,
    Simulation,
    TraceRecord,
    ValidationError,
    load_scenario,
    load_scenario_file,
    parse_trace,
    report,
    run_scenario,
    scenario_from_dict,
    write_trace,
)
from fso_sim.environment import EnvironmentSpec, EventSource, PeriodicProcess, PoissonProcess, ScriptedProcess
from fso_sim.evolution import EvolutionPolicy
from fso_sim.holarchy import HolarchySpec, Holon, HolonKind

from generators import random_scenario
from oracles import fold_metrics, replay_partition, son_lifecycle_check

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
    assert s.holarchy == HolarchySpec(
        roles=frozenset({0, 1}),
        holons=(
            Holon(id=0, kind=atomic, capabilities=frozenset({0})),
            Holon(id=1, kind=atomic, capabilities=frozenset({1})),
            Holon(id=2, kind=composite, members=(0,), representative=0),
            Holon(id=3, kind=composite, members=(1,), representative=1),
            Holon(id=4, kind=composite, members=(2, 3), representative=2),
        ),
    )
    assert s.activities.activities == (
        ResponseActivity(id=0, trigger_topics=frozenset({"knock"}), required_roles=(0,), duration=2),
    )
    assert s.environment == EnvironmentSpec(sources=(EventSource("knock", 2, ScriptedProcess(times=(1, 2))),))
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
    assert s.holarchy.holons[0] == Holon(id=0, kind=atomic)
    # the lowest member stands in for a representative left out
    assert s.holarchy.holons[4].representative == 2
    (activity,) = s.activities.activities
    assert activity.duration == 1 and activity.required_data == frozenset()
    assert s.policy.failure_injections == ()
    periodic, poisson = s.environment.sources[1].process, s.environment.sources[2].process
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


def test_load_rejects_structural_breakage():
    doc = minimal_doc()
    doc["holarchy"][2]["members"] = [0, 0]
    with pytest.raises(ValidationError) as err:
        scenario_from_dict(doc)
    assert "holarchy" in str(err.value)


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


# Edits come from a hypothesis-driven Random, so every slot is equally likely;
# most edited documents break a rule both sides see, and at 300 examples a
# loader that took True for an integer still passed now and then.
@settings(max_examples=600, deadline=None)
@given(st.sampled_from(range(len(BASE_DOCS))), st.integers(1, 3), st.randoms(use_true_random=False))
def test_loader_rejects_whatever_jsonschema_rejects(base, edits, rng):
    """The loader accepts a document or raises ValidationError, and never
    accepts one that jsonschema rejects."""
    import jsonschema

    doc = copy.deepcopy(BASE_DOCS[base])
    for _ in range(edits):
        _edit(doc, rng)
    try:
        scenario_from_dict(doc)
    except ValidationError:
        return
    jsonschema.validate(doc, SCHEMA)


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


# -- traces and metrics --------------------------------------------------------


def test_trace_round_trip_preserves_records():
    s = scenario_from_dict(minimal_doc())
    trace, _ = run_scenario(s)
    text = write_trace(trace)
    assert parse_trace(text) == trace
    for line in text.splitlines():
        doc = json.loads(line)
        assert set(doc) == {"tick", "kind", "payload"}


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


def test_report_folds_match_independent_fold():
    for seed in range(4):
        trace, metrics = run_scenario(random_scenario(seed, horizon=150))
        assert metrics.to_dict() == fold_metrics(trace)
        again = report(parse_trace(write_trace(trace)))
        assert again == metrics


def test_report_of_empty_trace_is_all_zero():
    m = report([])
    assert m == Metrics()
    assert m.final_partition_sizes == (0, 0)


def test_report_rejects_incomplete_records():
    with pytest.raises(MalformedTraceError):
        report([TraceRecord(tick=0, kind="SonFormed", payload={})])


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
    assert promoted[0].payload["members"] == [0, 1]
    assert pruned[0].payload["soc"] == promoted[0].payload["soc"]
    assert metrics.permanentifications == 1
    assert metrics.prunings == 1
