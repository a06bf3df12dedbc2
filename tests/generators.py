"""Seeded random scenarios for cross-checking and soak tests.

Scenarios go through the public dict format so every generated one also
exercises the loader. Shapes stay inside the envelope the exhaustive
oracle can afford: up to 12 actors, membership depth up to 4, up to 6
activities with at most 4 role slots each.
"""

from __future__ import annotations

import random
from typing import Any

from fso_sim.engine import Scenario, scenario_from_dict


def random_scenario_dict(
    seed: int,
    horizon: int = 200,
    force_poisson: bool = False,
    quiet_evolution: bool = False,
) -> dict[str, Any]:
    rng = random.Random(seed)
    n_roles = rng.randint(1, 5)
    n_atoms = rng.randint(2, 12)

    holons: list[dict[str, Any]] = []
    for a in range(n_atoms):
        k = rng.randint(0, min(3, n_roles))
        caps = sorted(rng.sample(range(n_roles), k))
        holons.append({"id": a, "kind": "atomic", "capabilities": caps})

    # group nodes upward; at most four rounds keeps the depth within four
    next_id = n_atoms
    current = list(range(n_atoms))
    composites: list[dict[str, Any]] = []
    for round_no in range(4):
        last = round_no == 3
        if len(current) == 1 and composites:
            break
        rng.shuffle(current)
        grouped: list[int] = []
        if last or len(current) <= rng.randint(2, 4):
            pieces = [list(current)]
        else:
            pieces = []
            i = 0
            while i < len(current):
                take = rng.randint(1, min(4, len(current) - i))
                pieces.append(current[i : i + take])
                i += take
        for piece in pieces:
            if len(piece) == 1 and len(pieces) > 1 and rng.random() < 0.35:
                grouped.append(piece[0])
                continue
            members = sorted(piece)
            entry = {"id": next_id, "kind": "composite", "members": members}
            if rng.random() < 0.5:
                entry["representative"] = rng.choice(members)
            composites.append(entry)
            grouped.append(next_id)
            next_id += 1
        current = grouped
    if len(current) > 1:
        composites.append({"id": next_id, "kind": "composite", "members": sorted(current)})
        next_id += 1
    holons.extend(composites)
    soc_ids = [c["id"] for c in composites]

    n_acts = rng.randint(1, 6)
    data_topics = [f"reading_{i}" for i in range(rng.randint(0, 2))]
    activities = []
    for i in range(n_acts):
        topics = [f"event_{i}"]
        if i and rng.random() < 0.3:
            topics.append(f"event_{rng.randrange(i)}")
        required = sorted(rng.choices(range(n_roles), k=rng.randint(1, 4)))
        data = sorted(rng.sample(data_topics, rng.randint(0, len(data_topics)))) if data_topics else []
        activities.append(
            {
                "id": i,
                "trigger_topics": sorted(set(topics)),
                "required_roles": required,
                "required_data": data,
                "duration": rng.randint(1, 5),
            }
        )

    topic_pool = sorted(
        {t for a in activities for t in a["trigger_topics"]}
        | {t for a in activities for t in a["required_data"]}
    )
    sources = []
    n_sources = rng.randint(1, 3)
    for i in range(n_sources):
        if force_poisson and i == 0:
            process: dict[str, Any] = {"kind": "poisson", "rate": rng.uniform(0.05, 0.5)}
        else:
            roll = rng.random()
            if roll < 0.4:
                process = {"kind": "poisson", "rate": rng.uniform(0.05, 0.5)}
            elif roll < 0.75:
                process = {"kind": "periodic", "period": rng.randint(1, 7), "offset": rng.randint(0, 3)}
            else:
                times = sorted(rng.sample(range(horizon), min(rng.randint(1, 8), horizon)))
                process = {"kind": "scripted", "times": times}
        sources.append(
            {
                "topic": rng.choice(topic_pool),
                "injection_soc": rng.choice(soc_ids),
                "process": process,
            }
        )

    if quiet_evolution:
        policy = {
            "permanentify_threshold": 10**6,
            "prune_failure_threshold": 10**6,
            "prune_window": 10,
            "strength_increment": 1.0,
            "failure_injections": [],
        }
    else:
        injections = []
        if rng.random() < 0.4:
            start = rng.randint(0, max(1, horizon // 2))
            injections.append(
                {
                    "activity": rng.randrange(n_acts),
                    "start": start,
                    "stop": start + rng.randint(5, horizon // 2 + 5),
                }
            )
        policy = {
            "permanentify_threshold": rng.randint(2, 5),
            "prune_failure_threshold": rng.randint(2, 4),
            "prune_window": rng.randint(10, 60),
            "strength_increment": 1.0,
            "failure_injections": injections,
        }

    return {
        "roles": [f"role_{i}" for i in range(n_roles)],
        "holarchy": holons,
        "activities": activities,
        "environment": sources,
        "policy": policy,
        "horizon": horizon,
        "seed": rng.getrandbits(64),
        "retry_bound": rng.randint(0, 3),
    }


def random_scenario(
    seed: int,
    horizon: int = 200,
    force_poisson: bool = False,
    quiet_evolution: bool = False,
) -> Scenario:
    return scenario_from_dict(
        random_scenario_dict(seed, horizon=horizon, force_poisson=force_poisson, quiet_evolution=quiet_evolution)
    )


def shared_member_list_scenario_dict(seed: int) -> dict[str, Any]:
    """One SoC's team, a sub-team of it, and failures that may prune both.

    A seeded variant of the hand-written shape in ``tests/test_evolution.py``.
    The anchor SoC holds 3-6 actors, each playing a role of its own, so every
    activity has exactly one team. Activity 0 needs a random sub-team, and
    activities 1 and 2 need the whole team, which the anchor's own member
    list blocks until the sub-team is promoted. Arrivals come in phases: the
    sub-team twice, the whole team twice, activity 2 twice, then the sub-team
    and the whole team twice more inside failure windows that may prune
    both promoted SoCs and so give the anchor its list back. The gaps, the
    durations, the windows and the retry bound vary with the seed, so some
    seeds never promote or never prune.
    """
    rng = random.Random(seed)
    n_atoms = rng.randint(3, 6)
    anchor = n_atoms + 1
    team = list(range(n_atoms))
    holons: list[dict[str, Any]] = [{"id": 0, "kind": "composite", "members": [anchor]}]
    holons += [{"id": a + 1, "kind": "atomic", "capabilities": [a]} for a in team]
    holons.append({"id": anchor, "kind": "composite", "members": [a + 1 for a in team]})
    duration = rng.randint(1, 2)
    sub = sorted(rng.sample(team, rng.randint(2, n_atoms - 1)))
    activities = [
        {"id": i, "trigger_topics": [topic], "required_roles": roles, "duration": duration}
        for i, (topic, roles) in enumerate((("sub", sub), ("team", team), ("again", team)))
    ]

    times: dict[str, list[int]] = {"sub": [], "team": [], "again": []}
    windows = []
    t = rng.randint(1, 3)
    for phase, topic in enumerate(("sub", "team", "again", "sub", "team")):
        start = t
        for _ in range(2):
            times[topic].append(t)
            t += duration + rng.randint(0, 2)
        if phase >= 3:
            # covers this phase's dissolves, give or take a tick at each end
            lo = start + duration + rng.randint(-1, 1)
            windows.append({"activity": phase - 3, "start": lo, "stop": max(lo + 1, t + rng.randint(-1, 1))})
        t += rng.randint(0, 3)

    return {
        "roles": [f"role_{i}" for i in team],
        "holarchy": holons,
        "activities": activities,
        "environment": [
            {"topic": topic, "injection_soc": anchor, "process": {"kind": "scripted", "times": ticks}}
            for topic, ticks in times.items()
        ],
        "policy": {
            "permanentify_threshold": 2,
            "prune_failure_threshold": 2,
            "prune_window": rng.randint(4, 12),
            "failure_injections": windows,
        },
        "horizon": t + 10,
        "seed": rng.getrandbits(64),
        "retry_bound": rng.randint(0, 2),
    }
