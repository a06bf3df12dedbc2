"""Seeded scenario generators for the benchmark workloads.

Each generator takes the workload seed and returns a scenario document in
the public JSON format; the benchmark writes it to a file and loads it
through ``load_scenario_file``, so the simulator only ever sees a scenario.
The same seed gives the same document, byte for byte, under one Python.

The workload seed becomes the scenario seed, which drives every arrival
stream. The structure (capabilities, activities, injection points, failure
windows) is drawn from the workload's fixed ``structure_seed``: drawing it
from the workload seed too made the 64-actor workload's subtree walks vary
2.6x between seeds, so runs on different seeds would not do comparable work.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any

# Generator parameters, one entry per workload. ``horizon`` is in simulated
# ticks; every workload runs at least 1000 ticks so that a p99 over ticks
# has at least ten samples beyond it.
PARAMS: dict[str, dict[str, Any]] = {
    "fixture_long": {
        "base": "scenarios/nine_actors.json",
        "horizon": 20000,
    },
    "escalation_512": {
        "structure_seed": 0,
        "branching": 8,
        "levels": 3,
        "roles": 16,
        "caps_per_actor": 1,
        "activities": 24,
        "slots_per_activity": 2,
        "common_roles": 4,
        "duration": [30, 60],
        "arrival_rate_total": 1.0,
        "retry_bound": 1,
        "horizon": 1200,
    },
    "promotion_churn": {
        "structure_seed": 2,
        "branching": 4,
        "levels": 3,
        "roles": 8,
        "caps_per_actor": [1, 2],
        "activities": 8,
        "slots_per_activity": [2, 3],
        "duration": [2, 6],
        "sources": 16,
        "rate_per_source": 0.1,
        "retry_bound": 3,
        "permanentify_threshold": 2,
        "prune_failure_threshold": 2,
        "prune_window": 100,
        "failure_period": 400,
        "failure_length": 100,
        "horizon": 3000,
    },
}

WORKLOADS = tuple(PARAMS)

_OUT_OF_REACH = 1 << 30


def scenario_seed(seed: int) -> int:
    """The simulator seed a workload seed stands for."""
    return random.Random(seed).getrandbits(63)


def _tree(
    rng: random.Random,
    branching: int,
    levels: int,
    capabilities,
) -> tuple[list[dict[str, Any]], list[int]]:
    """A complete holarchy: branching**levels actors under levels of SoCs.

    Returns the holon list and the ids of the lowest SoCs (the leaves'
    parents), where events are injected.
    """
    n_actors = branching**levels
    holons = [
        {"id": a, "kind": "atomic", "capabilities": capabilities(rng)}
        for a in range(n_actors)
    ]
    next_id = n_actors
    layer = list(range(n_actors))
    leaf_socs: list[int] = []
    while len(layer) > 1:
        grouped = []
        for i in range(0, len(layer), branching):
            members = layer[i : i + branching]
            holons.append(
                {
                    "id": next_id,
                    "kind": "composite",
                    "members": members,
                    "representative": rng.choice(members),
                }
            )
            grouped.append(next_id)
            next_id += 1
        if not leaf_socs:
            leaf_socs = list(grouped)
        layer = grouped
    return holons, leaf_socs


def _policy(permanentify: int, prune: int, window: int, failures: list[dict[str, int]]) -> dict[str, Any]:
    return {
        "permanentify_threshold": permanentify,
        "prune_failure_threshold": prune,
        "prune_window": window,
        "strength_increment": 1.0,
        "failure_injections": failures,
    }


def fixture_long(seed: int, repo_root: str, horizon: int | None = None) -> dict[str, Any]:
    """The shipped nine-actor fixture over a long horizon."""
    p = PARAMS["fixture_long"]
    with open(os.path.join(repo_root, p["base"]), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["horizon"] = p["horizon"] if horizon is None else horizon
    doc["seed"] = scenario_seed(seed)
    return doc


def escalation_512(seed: int, repo_root: str, horizon: int | None = None) -> dict[str, Any]:
    """512 actors, branching 8, Zipf-rare roles: most requests climb."""
    p = PARAMS["escalation_512"]
    rng = random.Random(p["structure_seed"])
    n_roles = p["roles"]
    # role r is held by a share of actors proportional to 1/(r+1), so the
    # high roles exist only a few times in the whole tree
    weights = [1.0 / (r + 1) for r in range(n_roles)]
    holons, leaf_socs = _tree(
        rng,
        p["branching"],
        p["levels"],
        lambda r: sorted(set(r.choices(range(n_roles), weights=weights, k=p["caps_per_actor"]))),
    )
    held = sorted({c for h in holons if h["kind"] == "atomic" for c in h["capabilities"]})
    common = [r for r in held if r < p["common_roles"]] or held[:1]
    activities = []
    for i in range(p["activities"]):
        roles = [rng.choice(common)] + rng.sample(held, p["slots_per_activity"] - 1)
        activities.append(
            {
                "id": i,
                "trigger_topics": [f"event_{i}"],
                "required_roles": sorted(roles),
                "required_data": [],
                "duration": rng.randint(*p["duration"]),
            }
        )
    rate = p["arrival_rate_total"] / len(leaf_socs)
    sources = [
        {
            "topic": f"event_{rng.randrange(p['activities'])}",
            "injection_soc": soc,
            "process": {"kind": "poisson", "rate": rate},
        }
        for soc in leaf_socs
    ]
    return {
        "roles": [f"role_{r}" for r in range(n_roles)],
        "holarchy": holons,
        "activities": activities,
        "environment": sources,
        "policy": _policy(_OUT_OF_REACH, _OUT_OF_REACH, 1, []),
        "horizon": p["horizon"] if horizon is None else horizon,
        "seed": scenario_seed(seed),
        "retry_bound": p["retry_bound"],
    }


def promotion_churn(seed: int, repo_root: str, horizon: int | None = None) -> dict[str, Any]:
    """64 actors over capacity, low promotion threshold, recurring failures."""
    p = PARAMS["promotion_churn"]
    rng = random.Random(p["structure_seed"])
    n_roles = p["roles"]
    holons, leaf_socs = _tree(
        rng,
        p["branching"],
        p["levels"],
        lambda r: sorted(r.sample(range(n_roles), r.randint(*p["caps_per_actor"]))),
    )
    activities = []
    for i in range(p["activities"]):
        roles = rng.sample(range(n_roles), rng.randint(*p["slots_per_activity"]))
        activities.append(
            {
                "id": i,
                "trigger_topics": [f"event_{i}"],
                "required_roles": sorted(roles),
                "required_data": [],
                "duration": rng.randint(*p["duration"]),
            }
        )
    sources = [
        {
            "topic": f"event_{rng.randrange(p['activities'])}",
            "injection_soc": rng.choice(leaf_socs),
            "process": {"kind": "poisson", "rate": p["rate_per_source"]},
        }
        for _ in range(p["sources"])
    ]
    h = p["horizon"] if horizon is None else horizon
    period, length = p["failure_period"], p["failure_length"]
    failures = []
    for i in range(p["activities"]):
        # each activity fails during its own recurring window
        offset = rng.randrange(period)
        for start in range(offset, h, period):
            failures.append({"activity": i, "start": start, "stop": start + length})
    failures.sort(key=lambda w: (w["start"], w["activity"]))
    return {
        "roles": [f"role_{r}" for r in range(n_roles)],
        "holarchy": holons,
        "activities": activities,
        "environment": sources,
        "policy": _policy(p["permanentify_threshold"], p["prune_failure_threshold"], p["prune_window"], failures),
        "horizon": h,
        "seed": scenario_seed(seed),
        "retry_bound": p["retry_bound"],
    }


GENERATORS = {
    "fixture_long": fixture_long,
    "escalation_512": escalation_512,
    "promotion_churn": promotion_churn,
}


def scenario_json(workload: str, seed: int, repo_root: str, horizon: int | None = None) -> str:
    """The workload's scenario document as canonical JSON text."""
    doc = GENERATORS[workload](seed, repo_root, horizon)
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"
