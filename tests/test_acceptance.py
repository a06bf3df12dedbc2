"""Acceptance suite: one test per published criterion.

Each test prints a single PASS or FAIL line (run with -s to see them all)
and enforces its stated tolerance or time budget. The random families used
here are seeded, so the whole suite is reproducible.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

from fso_sim.activation import enroll, enumerate_activation_space, initial_state
from fso_sim.canon import publish, resolve_request
from fso_sim.engine import Simulation, load_scenario_file, run_scenario, write_trace
from fso_sim.environment import EventSource, PoissonProcess, sample_arrivals
from fso_sim.holarchy import InformationItem, build_holarchy, register_initial_services, validate

from generators import random_scenario
from oracles import (
    chain_up,
    count_activation_states,
    oracle_resolve,
    replay_partition,
    request_outcome_check,
    son_lifecycle_check,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def conclude(number: int, text: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_1_nine_actor_fixture():
    started = time.perf_counter()
    scenario = load_scenario_file(str(SCENARIOS / "nine_actors.json"))
    h = build_holarchy(scenario.holons, scenario.roles)
    register_initial_services(h)

    atoms = h.atoms()
    role0_holders = [a for a in atoms if 0 in h.holons[a].capabilities]
    problems = []
    if len(atoms) != 9:
        problems.append(f"{len(atoms)} actors")
    if len(scenario.role_names) != 6:
        problems.append(f"{len(scenario.role_names)} roles")
    if len(role0_holders) != 4:
        problems.append(f"role 0 held by {len(role0_holders)}")
    violations = validate(h)
    if violations:
        problems.append(f"violations {violations}")
    count = enumerate_activation_space(scenario.holons)
    brute = count_activation_states(h)
    if count != 512 or brute != 512:
        problems.append(f"counted {count}, brute force {brute}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"{elapsed:.2f}s")
    conclude(
        1,
        "nine actors, six roles: clean structure, 512 activation states, under 1s",
        not problems,
        "; ".join(problems) or f"{elapsed * 1000:.0f}ms",
    )


def test_criterion_2_resolution_matches_exhaustive_search():
    started = time.perf_counter()
    checked = 0
    mismatches = []
    for seed in range(200):
        scenario = random_scenario(seed, horizon=50, quiet_evolution=True)
        h = build_holarchy(scenario.holons, scenario.roles)
        register_initial_services(h)
        rng = random.Random(seed * 7919 + 13)

        # sprinkle published data over random communities
        data_topics = sorted({t for a in scenario.activities.activities for t in a.required_data})
        for topic in data_topics:
            if rng.random() < 0.6:
                soc = rng.choice(h.composites())
                publish(
                    h.registries[soc],
                    InformationItem(published_at=0, source_index=0, source=soc, topic=topic),
                    scenario.activities,
                )

        state = initial_state(h)
        for a in sorted(h.atoms()):
            caps = sorted(h.holons[a].capabilities)
            if caps and rng.random() < 0.3:
                enroll(state, h, a, rng.choice(caps), son_id=999)

        socs = list(h.composites())
        rng.shuffle(socs)
        acts = list(scenario.activities.activities)
        rng.shuffle(acts)
        for activity in acts[:3]:
            for start in socs[:3]:
                got = resolve_request(activity, start, h, state)
                want = oracle_resolve(activity, start, h, state)
                checked += 1
                if want["kind"] == "plan":
                    agree = (
                        got.missing == ()
                        and len(got.hops) == want["hop_count"]
                        and got.assignment == want["assignment"]
                        and got.resolved_soc == want["resolved_soc"]
                    )
                else:
                    agree = (
                        got.assignment == ()
                        and len(got.hops) == want["hop_count"]
                        and tuple(sorted(got.missing)) == tuple(sorted(want["missing"]))
                    )
                if not agree:
                    mismatches.append((seed, activity.id, start))
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 60.0
    conclude(
        2,
        f"resolution equals exhaustive search on {checked} requests across 200 scenarios, under 60s",
        ok,
        f"mismatches {mismatches[:5]}" if mismatches else f"{elapsed:.1f}s",
    )


def test_criterion_3_partition_invariant_over_long_runs():
    violations = []
    for seed in range(50):
        scenario = random_scenario(1000 + seed, horizon=1000)
        try:
            Simulation(scenario, debug=True).run()
        except Exception as exc:
            violations.append((seed, repr(exc)))
    conclude(
        3,
        "latent/responding partition holds after every step of 50 runs, horizon 1000",
        not violations,
        f"violations {violations[:3]}" if violations else "0 violations",
    )


def test_criterion_4_traces_are_deterministic():
    problems = []
    for seed in range(10):
        scenario = random_scenario(2000 + seed, horizon=200, force_poisson=True)
        texts = []
        for _ in range(3):
            trace, _ = run_scenario(scenario, seed=7)
            texts.append(write_trace(trace))
        if not (texts[0] == texts[1] == texts[2]):
            problems.append((seed, "replays differ"))
        if not texts[0]:
            problems.append((seed, "empty trace"))
        other, _ = run_scenario(scenario, seed=8)
        if write_trace(other) == texts[0]:
            problems.append((seed, "seed change left the trace identical"))
    conclude(
        4,
        "three replays of 10 scenarios are byte-identical; a new seed changes the trace",
        not problems,
        str(problems[:3]) if problems else "30 replays",
    )


def test_criterion_5_overlay_lifecycle_is_balanced():
    problems = []
    runs = 0
    for seed in range(20):
        scenario = random_scenario(3000 + seed, horizon=300)
        sim = Simulation(scenario, debug=True)
        sim.run()
        runs += 1
        problems += [(seed, p) for p in son_lifecycle_check(sim.trace)]
        atoms = len(build_holarchy(scenario.holons, scenario.roles).atoms())
        problems += [(seed, p) for p in replay_partition(sim.trace, atoms)]
    for name in ("minimal", "nine_actors", "little_sister", "promotion", "pruning"):
        scenario = load_scenario_file(str(SCENARIOS / f"{name}.json"))
        trace, _ = run_scenario(scenario, debug=True)
        problems += [(name, p) for p in son_lifecycle_check(trace)]
    conclude(
        5,
        "every overlay dissolves exactly once, on schedule, releasing exactly its members",
        not problems,
        str(problems[:3]) if problems else f"{runs} runs + 5 fixtures",
    )


def test_criterion_6_escalation_is_bounded_and_terminates():
    problems = []
    for seed in range(20):
        scenario = random_scenario(4000 + seed, horizon=300)
        h = build_holarchy(scenario.holons, scenario.roles)
        depth = max(len(chain_up(h, i)) - 1 for i in h.holons)
        sim = Simulation(scenario, debug=True)
        sim.run()
        problems += [
            (seed, p) for p in request_outcome_check(sim.trace, scenario.retry_bound, depth)
        ]
    conclude(
        6,
        "exception chains stay within the holarchy depth and every trigger terminates",
        not problems,
        str(problems[:3]) if problems else "20 runs",
    )


def test_criterion_7_promotion_and_pruning_fixtures():
    problems = []

    scenario = load_scenario_file(str(SCENARIOS / "promotion.json"))
    trace, metrics = run_scenario(scenario, debug=True)
    promoted = [r for r in trace if r.kind == "Permanentified"]
    successes = [r for r in trace if r.kind == "SonDissolved" and r.payload["outcome"] == "success"]
    if len(promoted) != 1:
        problems.append(f"promotion fixture produced {len(promoted)} promotions")
    else:
        threshold_tick = successes[scenario.policy.permanentify_threshold - 1].tick
        if promoted[0].tick != threshold_tick:
            problems.append(
                f"promoted at t={promoted[0].tick}, threshold success was t={threshold_tick}"
            )

    scenario = load_scenario_file(str(SCENARIOS / "pruning.json"))
    sim = Simulation(scenario, debug=True)
    sim.run()
    pruned = [r for r in sim.trace if r.kind == "Pruned"]
    promoted = [r for r in sim.trace if r.kind == "Permanentified"]
    if len(promoted) != 1 or len(pruned) != 1:
        problems.append(f"pruning fixture: {len(promoted)} promotions, {len(pruned)} prunes")
    original = build_holarchy(scenario.holons, scenario.roles)
    register_initial_services(original)
    if sim.holarchy.holons != original.holons or sim.holarchy.parent != original.parent:
        problems.append("pruning did not restore the original structure")
    got_entries = {i: tuple(r.service_entries) for i, r in sim.holarchy.registries.items()}
    want_entries = {i: tuple(r.service_entries) for i, r in original.registries.items()}
    if got_entries != want_entries:
        problems.append("pruning did not restore the original registries")
    conclude(
        7,
        "exactly one promotion at the success threshold; exactly one prune restoring the original tree",
        not problems,
        "; ".join(problems) if problems else "two fixtures",
    )


def test_criterion_8_poisson_mean_interarrival():
    arrivals = sample_arrivals((EventSource("tick", 0, PoissonProcess(rate=0.2)),), 50_000, seed=20260815)
    times = [a.published_at for a in arrivals]
    gaps = [b - a for a, b in zip([0] + times, times)]
    mean = sum(gaps) / len(gaps)
    ok = 4.75 <= mean <= 5.25
    conclude(
        8,
        "poisson source at rate 0.2 over 50000 ticks has mean gap within 5% of 5.0",
        ok,
        f"mean {mean:.4f} from {len(gaps)} arrivals",
    )


def test_criterion_9_little_sister_fall_response():
    started = time.perf_counter()
    scenario = load_scenario_file(str(SCENARIOS / "little_sister.json"))
    trace, metrics = run_scenario(scenario, debug=True)
    formed = [r for r in trace if r.kind == "SonFormed"]
    problems = []
    if len(formed) != 1:
        problems.append(f"{len(formed)} overlays formed")
    else:
        payload = formed[0].payload
        if payload["hop_count"] != 1:
            problems.append(f"hop_count {payload['hop_count']}")
        if len(payload["spanned_socs"]) != 2:
            problems.append(f"spans {payload['spanned_socs']}")
        if metrics.unresolved_requests:
            problems.append(f"{metrics.unresolved_requests} unresolved")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        problems.append(f"{elapsed:.2f}s")
    conclude(
        9,
        "a fall resolves one level up through an overlay spanning two rooms, under 5s",
        not problems,
        "; ".join(problems) or f"{elapsed * 1000:.0f}ms",
    )
