"""The next-event clock: ``run`` visits only the ticks where something can happen.

``Simulation.run`` is one loop over due ticks: it jumps the clock over
ticks with no arrival, no dissolve and no promotion due, before the horizon
and after it alike, while ``Simulation.step`` is always one tick. The
referee is the trace: a run must write exactly what stepping every tick
writes, up to the horizon and then for as long as an overlay is open or a
promotion is due. The benchmark steps to the horizon and then calls
``run``, and the CLI only calls ``run``, so the ways must never part.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from fso_sim.engine import InvariantViolationError, Simulation, load_scenario_file, scenario_from_dict
from fso_sim.evolution import promotion_due
from fso_sim.trace import parse_trace, write_trace

from generators import random_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def jumping(scenario, **kwargs) -> str:
    sim = Simulation(scenario, **kwargs)
    sim.run()
    return write_trace(sim.trace)


def per_tick(scenario, **kwargs) -> str:
    """Step every tick, past the horizon while anything is left to drain or promote."""
    sim = Simulation(scenario, **kwargs)
    while sim.clock < sim.horizon or sim._dissolve_at or promotion_due(sim.ledger, sim.holarchy):
        sim.step()
    sim.run()  # nothing is due: it only closes the parked requests
    return write_trace(sim.trace)


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_run_writes_the_trace_of_stepping_every_tick_on_shipped_scenarios(path):
    scenario = load_scenario_file(str(path))
    for seed in (scenario.seed, 1, 4242):
        assert jumping(scenario, seed=seed) == per_tick(scenario, seed=seed), seed


def test_run_writes_the_trace_of_stepping_every_tick_on_generated_scenarios():
    prunings = 0
    for seed in range(60):
        scenario = random_scenario(seed, horizon=300)
        text = jumping(scenario)
        assert text == per_tick(scenario), seed
        prunings += text.count('"kind":"Pruned"')
    # seeds 32, 40, 49 and 54 prune, so evolution's own ticks are refereed too
    assert prunings >= 4


def stepped_ticks(sim) -> list[int]:
    """Run ``sim``, returning the tick of each step it took."""
    step = sim.step
    ticks = []

    def counted():
        before = sim.clock
        step()
        ticks.append(before)
        assert sim.clock == before + 1

    sim.step = counted
    sim.run()
    return ticks


def test_an_idle_stretch_costs_no_steps():
    sim = Simulation(load_scenario_file(str(SCENARIOS / "minimal.json")), horizon=10**6)
    ticks = stepped_ticks(sim)
    # two knocks, two dissolves, and nothing in between: tick 0 has nothing due
    assert ticks == [1, 2, 3, 5]
    assert sim.trace[-1].tick == 5


def test_an_idle_drain_costs_one_step():
    # horizon 2 keeps only the knock at tick 1; its overlay dissolves 10**6 ticks after the horizon
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    doc["activities"][0]["duration"] = 10**6 + 1
    sim = Simulation(scenario_from_dict(doc), horizon=2)
    assert stepped_ticks(sim) == [1, 10**6 + 2]
    assert [(r.tick, r.kind) for r in sim.trace][-1] == (10**6 + 2, "SonDissolved")


# -- a prune that frees a ready signature --------------------------------------


def blocked_then_pruned_doc():
    """Activities 0 and 1 are both staffed by actors 0 and 1.

    Activity 0 succeeds at ticks 2 and 3, so its team is promoted at 3 as
    SoC 6. Activity 1 succeeds at 5 and 6 and is ready from 6, but SoC 6
    holds its member set. Activity 0 fails at 9 and 10, so SoC 6 is pruned
    at 10, and activity 1's team is promoted at 11, a tick with no arrival
    and no dissolve.
    """
    return {
        "roles": ["watch", "act"],
        "holarchy": [
            {"id": 0, "kind": "atomic", "capabilities": [0]},
            {"id": 1, "kind": "atomic", "capabilities": [1]},
            {"id": 3, "kind": "composite", "members": [0]},
            {"id": 4, "kind": "composite", "members": [1]},
            {"id": 5, "kind": "composite", "members": [3, 4]},
        ],
        "activities": [
            {"id": 0, "trigger_topics": ["a"], "required_roles": [0, 1], "duration": 1},
            {"id": 1, "trigger_topics": ["b"], "required_roles": [0, 1], "duration": 1},
        ],
        "environment": [
            {"topic": "a", "injection_soc": 5, "process": {"kind": "scripted", "times": [1, 2, 8, 9]}},
            {"topic": "b", "injection_soc": 5, "process": {"kind": "scripted", "times": [4, 5]}},
        ],
        "policy": {
            "permanentify_threshold": 2,
            "prune_failure_threshold": 2,
            "prune_window": 50,
            "failure_injections": [{"activity": 0, "start": 8, "stop": 30}],
        },
        "horizon": 30,
        "seed": 1,
        "retry_bound": 0,
    }


@pytest.mark.parametrize(
    "drive,horizon",
    [
        pytest.param(jumping, None, id="jumping"),
        pytest.param(per_tick, None, id="per_tick"),
        # the prune falls on a drain tick at horizon 10, and on the last tick before it at 11
        pytest.param(jumping, 10, id="jumping-10"),
        pytest.param(per_tick, 10, id="per_tick-10"),
        pytest.param(jumping, 11, id="jumping-11"),
        pytest.param(per_tick, 11, id="per_tick-11"),
    ],
)
def test_a_signature_freed_by_a_prune_is_promoted_on_the_next_tick(drive, horizon):
    trace = parse_trace(drive(scenario_from_dict(blocked_then_pruned_doc()), horizon=horizon))
    evolution = [
        (r.tick, r.kind, r.payload["members"], r.payload.get("activity"))
        for r in trace
        if r.kind in ("Permanentified", "Pruned")
    ]
    assert evolution == [
        (3, "Permanentified", [0, 1], 0),
        (10, "Pruned", [0, 1], None),
        (11, "Permanentified", [0, 1], 1),
    ]
    # nothing else is due at tick 11, so only the freed signature brings run there
    assert [r.kind for r in trace if r.tick == 11] == ["Permanentified"]


# -- nothing due behind the clock -----------------------------------------------


def test_debug_run_refuses_a_clock_that_passed_an_arrival():
    sim = Simulation(load_scenario_file(str(SCENARIOS / "minimal.json")), debug=True)
    sim.clock = 2  # past the knock at tick 1
    with pytest.raises(InvariantViolationError, match="arrival due at tick 1 was never published"):
        sim.step()


def test_debug_run_refuses_a_clock_that_passed_a_dissolve():
    # horizon 2 keeps only the knock at tick 1, whose overlay dissolves at 3
    sim = Simulation(load_scenario_file(str(SCENARIOS / "minimal.json")), horizon=2, debug=True)
    sim.step()
    sim.step()
    sim.clock = 4
    with pytest.raises(InvariantViolationError, match="overlays due at tick 3 never dissolved"):
        sim.step()
