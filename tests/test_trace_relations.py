"""Relations between runs that must agree, checked without a second engine.

Arrivals come from per-source streams, so a run to horizon ``H`` sees the
first arrivals of a run to ``2H`` and nothing else: the two agree on every
record before ``H``, and only the drain and the final closes may differ.
Promotion acts only in the evolution phase, the last of a tick: a run and
the same run with promotion switched off agree on every record before the
first ``Permanentified``, and on that tick apart from its evolution
records. Candidates are ranked by holon id, and a promoted SoC takes the
next id after the largest, so only the order of ids matters: shifting
every id by a constant gives the same run with the ids mapped back. A
role that no actor plays and no activity needs is never read, so
appending one changes no record. A cache that goes stale shows up as a
disagreement. Each failure names the first differing record."""

from __future__ import annotations

import copy
import dataclasses
import functools
import json
import math
from pathlib import Path

from fso_sim.engine import Simulation, load_scenario_file, scenario_from_dict
from fso_sim.trace import TRACE_FIELDS

from generators import random_scenario, random_scenario_dict, shared_member_list_scenario_dict
from oracles import HOLON_ID_KEYS, first_difference, shift_holon_ids

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
EVOLUTION = ("Permanentified", "Pruned")
# how far the id-shift relation moves every holon id
SHIFT = 1000


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


def relation_runs() -> list[tuple[str, dict, int | None]]:
    """(name, scenario document, seed override) for each run a document-level relation checks.

    The shipped scenarios at seeds 1 and 4242, generator seeds 0-59 at
    horizon 300 and the shared-member family's seeds 0-19, at their own
    seeds.
    """
    runs = []
    for path in sorted(SCENARIOS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        runs += [(f"{path.stem} seed {seed}", doc, seed) for seed in (1, 4242)]
    runs += [(f"generator seed {seed}", random_scenario_dict(seed, horizon=300), None) for seed in range(60)]
    runs += [(f"shared-member seed {seed}", shared_member_list_scenario_dict(seed), None) for seed in range(20)]
    return runs


RUNS = relation_runs()


def lines_of(doc: dict, seed: int | None, shift: int = 0) -> list[str]:
    """The run's trace lines, with every holon id moved by ``shift``."""
    return [shift_holon_ids(r, shift).to_line() for r in trace_of(scenario_from_dict(doc), seed=seed)]


@functools.cache
def original_lines(index: int) -> list[str]:
    _, doc, seed = RUNS[index]
    return lines_of(doc, seed)


def with_ids_shifted(doc: dict, delta: int) -> dict:
    """The scenario with every holon id, wherever the document names one, moved by ``delta``."""
    doc = copy.deepcopy(doc)
    for holon in doc["holarchy"]:
        holon["id"] += delta
        if "members" in holon:
            holon["members"] = [m + delta for m in holon["members"]]
        if "representative" in holon:
            holon["representative"] += delta
    for source in doc["environment"]:
        source["injection_soc"] += delta
    return doc


def test_shifting_every_holon_id_gives_the_same_run_with_the_ids_mapped_back():
    # every id key the map names is a payload key of some kind
    assert HOLON_ID_KEYS <= {key for keys in TRACE_FIELDS.values() for key in keys}
    for index, (name, doc, seed) in enumerate(RUNS):
        shifted = lines_of(with_ids_shifted(doc, SHIFT), seed, shift=-SHIFT)
        assert first_difference(original_lines(index), shifted) is None, name


def test_an_idle_role_changes_no_record():
    for index, (name, doc, seed) in enumerate(RUNS):
        idle = copy.deepcopy(doc)
        idle["roles"].append("idle")
        assert first_difference(original_lines(index), lines_of(idle, seed)) is None, name
