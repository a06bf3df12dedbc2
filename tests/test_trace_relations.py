"""Relations between runs that must agree, checked without a second engine.

Arrivals come from per-source streams, so a run to horizon ``H`` sees the
first arrivals of a run to ``2H`` and nothing else: the two agree on every
record before ``H``, and only the drain and the final closes may differ.
Promotion acts only in the evolution phase, the last of a tick: a run and
the same run with promotion switched off agree on every record before the
first ``Permanentified``, and on that tick apart from its evolution
records. A cache that goes stale shows up as a disagreement. Each failure
names the first differing record.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

from fso_sim.engine import Simulation, load_scenario_file

from generators import random_scenario
from oracles import first_difference

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
EVOLUTION = ("Permanentified", "Pruned")


def trace_of(scenario, **kwargs):
    sim = Simulation(scenario, **kwargs)
    sim.run()
    return sim.trace


def lines_before(trace, tick: int) -> list[str]:
    return [r.to_line() for r in trace if r.tick < tick]


def test_a_longer_horizon_keeps_every_record_before_the_shorter_one():
    runs = [(f"generator seed {seed}", random_scenario(seed, horizon=150), None, 150) for seed in range(40)]
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario_file(str(path))
        runs += [(f"{path.stem} seed {seed}", scenario, seed, scenario.horizon) for seed in (1, 4242)]
    for name, scenario, seed, h in runs:
        short = lines_before(trace_of(scenario, seed=seed, horizon=h), h)
        long = lines_before(trace_of(scenario, seed=seed, horizon=2 * h), h)
        assert first_difference(short, long) is None, name


def test_promotion_changes_no_record_before_its_evolution_records():
    promoting = 0
    for seed in range(60):
        scenario = random_scenario(seed, horizon=300)
        never = dataclasses.replace(scenario.policy, permanentify_threshold=10**9)
        on, off = trace_of(scenario), trace_of(dataclasses.replace(scenario, policy=never))
        # a run that never promotes is the run with promotion off, to the end
        first = next((r.tick for r in on if r.kind == "Permanentified"), math.inf)
        promoting += first < math.inf
        on_lines = [r.to_line() for r in on if r.tick <= first and r.kind not in EVOLUTION]
        off_lines = [r.to_line() for r in off if r.tick <= first and r.kind not in EVOLUTION]
        assert first_difference(on_lines, off_lines) is None, seed
    assert promoting >= 20
