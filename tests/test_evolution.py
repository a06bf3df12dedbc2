"""Promotion of recurring overlays and pruning of failing ones."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fso_sim import engine
from fso_sim.canon import Son
from fso_sim.evolution import (
    EvolutionPolicy,
    ExperienceLedger,
    FailureWindow,
    Outcome,
    SonSignature,
    maybe_permanentify,
    maybe_prune,
    promotion_due,
    record_outcome,
)
from fso_sim.holarchy import (
    Holarchy,
    Holon,
    HolonKind,
    HolonOrigin,
    build_holarchy,
    register_initial_services,
    validate,
)

from generators import random_scenario, shared_member_list_scenario_dict
from test_workload_traces import workload_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def atom(i, *caps):
    return Holon(id=i, kind=HolonKind.ATOMIC, capabilities=frozenset(caps))


def soc(i, members):
    members = tuple(members)
    return Holon(id=i, kind=HolonKind.COMPOSITE, members=members, representative=min(members))


def build(*holons, roles=frozenset({0, 1, 2})):
    h = build_holarchy(holons, roles)
    register_initial_services(h)
    return h


def make_son(sid, members, activity=0, formed=0, duration=1):
    return Son(
        id=sid,
        activity=activity,
        members=tuple(members),
        dissolves_at=formed + duration,
    )


POLICY = EvolutionPolicy(
    permanentify_threshold=2,
    prune_failure_threshold=2,
    prune_window=10,
)


def build_wings():
    # actors 0,1 on wing 4; actor 2 on wing 5; roof 6
    return build(atom(0, 0), atom(1, 1), atom(2, 2), soc(4, [0, 1]), soc(5, [2]), soc(6, [4, 5]))


@pytest.fixture
def wings():
    return build_wings()


def test_outcomes_accumulate(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(0, 0), (2, 2)])
    record_outcome(ledger, son, Outcome.SUCCESS, 3, POLICY)
    record_outcome(ledger, son, Outcome.FAILURE, 7, POLICY)
    sig = SonSignature.of(son)
    assert ledger.son_outcomes[sig].successes == 1
    assert ledger.son_outcomes[sig].failure_times == [7]


def test_promotion_waits_for_threshold(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    record_outcome(ledger, son, Outcome.SUCCESS, 1, POLICY)
    events = maybe_permanentify(ledger, wings)
    assert events == ()


def test_promotion_grafts_under_lowest_common_community(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    record_outcome(ledger, son, Outcome.SUCCESS, 1, POLICY)
    record_outcome(ledger, son, Outcome.SUCCESS, 4, POLICY)
    events = maybe_permanentify(ledger, wings)
    assert len(events) == 1
    ev = events[0]
    assert ev.members == (1, 2)
    assert ev.parent == 6
    new = wings.holons[ev.soc]
    assert new.origin is HolonOrigin.PERMANENTIFIED
    assert new.representative == 1
    assert wings.parent[ev.soc] == 6
    # members keep their original primary communities
    assert wings.parent[1] == 4 and wings.parent[2] == 5
    assert ev.soc in wings.holons[6].members
    # the promoted SoC keeps no registry, and its anchor's gains no proxies
    assert ev.soc not in wings.registries
    assert wings.registries[6].service_entries == build_wings().registries[6].service_entries
    assert validate(wings) == []


def test_promotion_happens_once_per_signature(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    for t in (1, 2, 3):
        record_outcome(ledger, son, Outcome.SUCCESS, t, POLICY)
    first = maybe_permanentify(ledger, wings)
    record_outcome(ledger, son, Outcome.SUCCESS, 9, POLICY)
    second = maybe_permanentify(ledger, wings)
    assert len(first) == 1
    assert second == ()


def test_promotion_skips_existing_member_sets(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(0, 0), (1, 1)])
    record_outcome(ledger, son, Outcome.SUCCESS, 1, POLICY)
    record_outcome(ledger, son, Outcome.SUCCESS, 2, POLICY)
    # SoC 4 already holds exactly {0, 1}
    events = maybe_permanentify(ledger, wings)
    assert events == ()


def test_prune_needs_windowed_failures(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    record_outcome(ledger, son, Outcome.SUCCESS, 1, POLICY)
    record_outcome(ledger, son, Outcome.SUCCESS, 2, POLICY)
    events = maybe_permanentify(ledger, wings)
    soc_id = events[0].soc

    record_outcome(ledger, son, Outcome.FAILURE, 5, POLICY)
    pruned = maybe_prune(ledger, wings, POLICY, 5)
    assert pruned == ()

    # a failure far outside the window does not count
    record_outcome(ledger, son, Outcome.FAILURE, 40, POLICY)
    pruned = maybe_prune(ledger, wings, POLICY, 40)
    assert pruned == ()

    record_outcome(ledger, son, Outcome.FAILURE, 42, POLICY)
    pruned = maybe_prune(ledger, wings, POLICY, 42)
    assert len(pruned) == 1
    assert pruned[0].soc == soc_id
    assert soc_id not in wings.holons
    assert soc_id not in wings.parent
    assert soc_id not in wings.registries
    assert wings.holons[6].members == build_wings().holons[6].members
    assert all(e.via != soc_id for e in wings.registries[6].service_entries)
    assert validate(wings) == []


def test_prune_restores_original_shape(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    record_outcome(ledger, son, Outcome.SUCCESS, 1, POLICY)
    record_outcome(ledger, son, Outcome.SUCCESS, 2, POLICY)
    maybe_permanentify(ledger, wings)
    record_outcome(ledger, son, Outcome.FAILURE, 3, POLICY)
    record_outcome(ledger, son, Outcome.FAILURE, 4, POLICY)
    maybe_prune(ledger, wings, POLICY, 4)
    fresh = build_wings()
    assert wings.holons == fresh.holons
    assert wings.parent == fresh.parent
    assert {i: {(e.provider, e.role, e.via) for e in r.service_entries} for i, r in wings.registries.items()} == {
        i: {(e.provider, e.role, e.via) for e in r.service_entries} for i, r in fresh.registries.items()
    }


def test_prune_window_is_half_open(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    for t in (1, 2):
        record_outcome(ledger, son, Outcome.SUCCESS, t, POLICY)
    maybe_permanentify(ledger, wings)
    # the window at t=13 is (3, 13]: the failure at 3 has just left it
    for t in (3, 13):
        record_outcome(ledger, son, Outcome.FAILURE, t, POLICY)
        assert maybe_prune(ledger, wings, POLICY, t) == ()
    record_outcome(ledger, son, Outcome.FAILURE, 14, POLICY)
    assert len(maybe_prune(ledger, wings, POLICY, 14)) == 1


def test_teams_pruned_in_one_pass_come_out_in_id_order(wings):
    ledger = ExperienceLedger()
    teams = [make_son(0, [(1, 1), (2, 2)]), make_son(1, [(0, 0), (2, 2)])]
    for t in (1, 2):
        for son in teams:
            record_outcome(ledger, son, Outcome.SUCCESS, t, POLICY)
    promoted = maybe_permanentify(ledger, wings)
    for t in (3, 4):
        for son in reversed(teams):
            record_outcome(ledger, son, Outcome.FAILURE, t, POLICY)
    pruned = maybe_prune(ledger, wings, POLICY, 4)
    assert [ev.soc for ev in pruned] == sorted(ev.soc for ev in promoted) == [7, 8]
    assert validate(wings) == []


def test_a_team_blocked_within_one_pass_is_promoted_once_the_blocker_is_pruned(wings):
    # two activities answered by the same pair reach the threshold together
    ledger = ExperienceLedger()
    first, second = make_son(0, [(1, 1), (2, 2)], activity=0), make_son(1, [(1, 1), (2, 2)], activity=1)
    for t in (1, 2):
        record_outcome(ledger, first, Outcome.SUCCESS, t, POLICY)
        record_outcome(ledger, second, Outcome.SUCCESS, t, POLICY)
    assert [(e.soc, e.activity) for e in maybe_permanentify(ledger, wings)] == [(7, 0)]
    # the first team's SoC holds the pair, so the second waits in ready
    assert ledger.ready == {SonSignature.of(second)}
    assert not promotion_due(ledger, wings)
    for t in (3, 4):
        record_outcome(ledger, first, Outcome.FAILURE, t, POLICY)
    assert [e.soc for e in maybe_prune(ledger, wings, POLICY, 4)] == [7]
    assert promotion_due(ledger, wings)
    assert [(e.soc, e.activity, e.members) for e in maybe_permanentify(ledger, wings)] == [(7, 1, (1, 2))]
    assert ledger.ready == set()
    assert validate(wings) == []


def test_pruned_signature_is_not_promoted_again(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    for t in (1, 2):
        record_outcome(ledger, son, Outcome.SUCCESS, t, POLICY)
    maybe_permanentify(ledger, wings)
    for t in (3, 4):
        record_outcome(ledger, son, Outcome.FAILURE, t, POLICY)
    maybe_prune(ledger, wings, POLICY, 4)
    for t in (5, 6, 7):
        record_outcome(ledger, son, Outcome.SUCCESS, t, POLICY)
    events = maybe_permanentify(ledger, wings)
    assert events == ()


def test_failure_windows_select_outcomes():
    policy = EvolutionPolicy(
        permanentify_threshold=2,
        prune_failure_threshold=2,
        prune_window=10,
        failure_injections=(FailureWindow(activity=1, start=5, stop=8),),
    )
    assert policy.outcome_of(1, 4) is Outcome.SUCCESS
    assert policy.outcome_of(1, 5) is Outcome.FAILURE
    assert policy.outcome_of(1, 7) is Outcome.FAILURE
    assert policy.outcome_of(1, 8) is Outcome.SUCCESS
    assert policy.outcome_of(0, 6) is Outcome.SUCCESS


def test_failure_windows_of_several_activities_select_outcomes():
    windows = (
        FailureWindow(activity=2, start=3, stop=9),
        FailureWindow(activity=0, start=0, stop=4),
        FailureWindow(activity=2, start=6, stop=12),
        FailureWindow(activity=0, start=10, stop=11),
    )
    policy = EvolutionPolicy(
        permanentify_threshold=2,
        prune_failure_threshold=2,
        prune_window=10,
        failure_injections=windows,
    )
    for activity in range(4):
        for t in range(15):
            failing = any(w.activity == activity and w.start <= t < w.stop for w in windows)
            assert policy.outcome_of(activity, t) is (Outcome.FAILURE if failing else Outcome.SUCCESS)


def test_failure_memory_keeps_only_the_prune_window():
    ledger = ExperienceLedger()
    son = make_son(0, [(0, 0), (2, 2)])
    rec = None
    for t in range(0, 200, 3):
        record_outcome(ledger, son, Outcome.FAILURE, t, POLICY)
        rec = ledger.son_outcomes[SonSignature.of(son)]
        assert rec.failure_times == [u for u in range(0, t + 1, 3) if u > t - POLICY.prune_window]
    assert len(rec.failure_times) == 4


def test_policy_rejects_nonsense():
    with pytest.raises(ValueError):
        EvolutionPolicy(permanentify_threshold=0, prune_failure_threshold=1, prune_window=1)
    with pytest.raises(ValueError):
        EvolutionPolicy(permanentify_threshold=1, prune_failure_threshold=1, prune_window=0)


# -- the role-atom cache stays true through evolution -------------------------


def warm_role_atoms(h):
    """Fill the cache for every SoC and role; later checks read it back."""
    for s in h.composites():
        h.atoms_by_role(s)


def assert_role_atoms_fresh(h):
    for s in h.composites():
        for r in sorted(h.roles):
            fresh = sorted(a for a in h.subtree_atoms(s) if r in h.holons[a].capabilities)
            assert list(h.atoms_by_role(s).get(r, ())) == fresh, (s, r)


def assert_registries_offer_role_atoms(h):
    """Each registry, unfolded, offers exactly its SoC's role atoms, and every SoC's atoms nest.

    Staffing reads each hop's role atoms in place of the registries' offer
    record, so the two must agree; and a hop's own atoms stand for the
    whole visited chain's only while every SoC's atoms hold its members'.
    A promoted SoC keeps no registry, so only the nesting speaks for it.
    """
    for s in h.composites():
        for r in sorted(h.roles):
            atoms = h.atoms_by_role(s).get(r, ())
            if s in h.registries:
                offered = set()
                for e in h.registries[s].service_entries:
                    if e.role != r:
                        continue
                    if e.via is None:
                        offered.update([e.provider] if r in h.holons[e.provider].capabilities else [])
                    else:
                        offered.update(a for a in h.subtree_atoms(e.via) if r in h.holons[a].capabilities)
                assert list(atoms) == sorted(offered), (s, r)
            if s in h.parent:
                assert set(atoms) <= set(h.atoms_by_role(h.parent[s]).get(r, ())), (s, r)


def run_checking_role_atoms(monkeypatch, scenario):
    """Run a scenario, checking the caches after every promotion and pruning.

    The holarchy going into each evolution step has a full role-atom cache,
    so every check reads entries kept from before the step.
    """
    seen = {"promotions": 0, "prunings": 0}

    def checked(fn, counter):
        def evolve(ledger, h, *args):
            warm_role_atoms(h)
            events = fn(ledger, h, *args)
            if events:
                seen[counter] += len(events)
                assert_role_atoms_fresh(h)
                assert_registries_offer_role_atoms(h)
            return events

        return evolve

    monkeypatch.setattr(engine, "maybe_permanentify", checked(maybe_permanentify, "promotions"))
    monkeypatch.setattr(engine, "maybe_prune", checked(maybe_prune, "prunings"))
    engine.run_scenario(scenario)
    return seen


@pytest.mark.parametrize("name", ["promotion.json", "pruning.json"])
def test_role_atoms_stay_fresh_through_shipped_evolution(monkeypatch, name):
    seen = run_checking_role_atoms(monkeypatch, engine.load_scenario_file(str(SCENARIOS / name)))
    assert seen["promotions"] >= 1
    assert seen["prunings"] >= (1 if name == "pruning.json" else 0)


def test_role_atoms_stay_fresh_through_generated_evolution(monkeypatch):
    # generator seed 5001 promotes two teams and prunes both again
    seen = run_checking_role_atoms(monkeypatch, random_scenario(5001, horizon=300))
    assert seen == {"promotions": 2, "prunings": 2}


def test_role_atoms_forget_a_pruned_id_that_promotion_reuses(wings):
    ledger = ExperienceLedger()
    first = make_son(0, [(1, 1), (2, 2)])
    for t in (1, 2):
        record_outcome(ledger, first, Outcome.SUCCESS, t, POLICY)
    (promoted,) = maybe_permanentify(ledger, wings)
    assert promoted.soc == max(wings.holons)
    warm_role_atoms(wings)
    assert wings.atoms_by_role(promoted.soc).get(1, ()) == (1,)

    for t in (3, 4):
        record_outcome(ledger, first, Outcome.FAILURE, t, POLICY)
    (pruned,) = maybe_prune(ledger, wings, POLICY, 4)
    assert pruned.soc == promoted.soc
    assert_role_atoms_fresh(wings)

    second = make_son(1, [(0, 0), (2, 2)])
    for t in (5, 6):
        record_outcome(ledger, second, Outcome.SUCCESS, t, POLICY)
    (reused,) = maybe_permanentify(ledger, wings)
    assert reused.soc == promoted.soc and reused.members == (0, 2)
    assert wings.atoms_by_role(reused.soc).get(0, ()) == (0,)
    assert wings.atoms_by_role(reused.soc).get(1, ()) == ()
    assert_role_atoms_fresh(wings)


# -- evolution writes no registry ------------------------------------------------


def set_up_entries(scenario):
    """Per SoC of ``scenario``, the service entries set-up writes."""
    h = build_holarchy(scenario.holons, scenario.roles)
    register_initial_services(h)
    return {s: r.service_entries for s, r in h.registries.items()}


def audit_edits(monkeypatch, check):
    """Call ``check(h)`` after every graft and remove of later runs; returns the edit counts."""
    edits = {"graft": 0, "remove": 0}

    def audited(name):
        edit = getattr(Holarchy, name)

        def wrapper(h, *args):
            out = edit(h, *args)
            edits[name] += 1
            check(h)
            return out

        return wrapper

    for name in edits:
        monkeypatch.setattr(Holarchy, name, audited(name))
    return edits


def assert_registries_as_set_up(h, entries):
    """The registries are keyed by the scenario's SoCs, each holds what
    set-up wrote into it, and the holarchy validates."""
    assert {s: r.service_entries for s, r in h.registries.items()} == entries
    assert validate(h) == []


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.randoms(use_true_random=False))
def test_grafts_and_removes_on_generated_holarchies_write_no_registry(seed, rng):
    scenario = random_scenario(seed)
    entries = set_up_entries(scenario)
    h = build_holarchy(scenario.holons, scenario.roles)
    register_initial_services(h)
    promoted = []
    for _ in range(rng.randint(1, 12)):
        if promoted and rng.random() < 0.4:
            h.remove(promoted.pop(rng.randrange(len(promoted))))
        else:
            # a team is some actors already under its anchor
            anchor = rng.choice(sorted(entries))
            actors = sorted(h.subtree_atoms(anchor))
            promoted.append(h.graft(tuple(sorted(rng.sample(actors, rng.randint(1, len(actors))))), anchor))
        assert_registries_as_set_up(h, entries)


@pytest.mark.parametrize(
    ("name", "seed"),
    [("promotion.json", None), ("pruning.json", None), ("promotion_churn", 1), ("promotion_churn", 4242)],
)
def test_whole_runs_write_no_registry(monkeypatch, tmp_path, name, seed):
    if seed is None:
        scenario = engine.load_scenario_file(str(SCENARIOS / name))
    else:
        scenario = workload_scenario(name, seed, tmp_path)
    entries = set_up_entries(scenario)
    edits = audit_edits(monkeypatch, lambda h: assert_registries_as_set_up(h, entries))
    sim = engine.Simulation(scenario)
    sim.run()
    assert_registries_as_set_up(sim.holarchy, entries)
    assert edits["graft"] >= 1
    assert edits["remove"] >= (name != "promotion.json")


# -- the member-list count stays true through evolution ------------------------


def assert_member_lists_counted(h, teams):
    """``holds_members`` against a scan of every SoC's sorted member list."""
    listed = {tuple(sorted(h.holons[s].members)) for s in h.composites()}
    for team in teams | listed:
        assert h.holds_members(team) == (team in listed), team


def audit_member_lists(monkeypatch):
    """Audit the count after every graft and remove of later runs, for every
    team in the run's ledger and every listed SoC; returns the edit counts."""
    ledgers = []

    def recorded():
        ledgers.append(ExperienceLedger())
        return ledgers[-1]

    monkeypatch.setattr(engine, "ExperienceLedger", recorded)
    return audit_edits(monkeypatch, lambda h: assert_member_lists_counted(h, {sig.members for sig in ledgers[-1].son_outcomes}))


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_member_list_count_stays_true_through_shipped_evolution(monkeypatch, path):
    edits = audit_member_lists(monkeypatch)
    engine.run_scenario(engine.load_scenario_file(str(path)))
    assert edits["graft"] >= (path.stem in ("promotion", "pruning"))
    assert edits["remove"] >= (path.stem == "pruning")


def test_member_list_count_stays_true_through_generated_evolution(monkeypatch):
    edits = audit_member_lists(monkeypatch)
    for seed in (*range(30, 70), 5001):
        engine.run_scenario(random_scenario(seed, horizon=300))
    # seeds 32, 40, 49, 54 and 5001 prune
    assert edits == {"graft": 24, "remove": 8}


def shared_member_list_doc():
    """SoC 4 holds actors 1, 2 and 3, which play roles 0, 1 and 2.

    Team (1, 2) is promoted as SoC 5 at tick 3, so SoC 4 lists 5 as well
    and team (1, 2, 3) is promoted as SoC 6 at tick 6. Activity 2's team is
    the same (1, 2, 3) and waits behind SoC 6. Pruning SoC 5 at 12 and SoC
    6 at 15 gives SoC 4 back its list (1, 2, 3), which blocks activity 2's
    team again.
    """
    return {
        "roles": ["r0", "r1", "r2"],
        "holarchy": [
            {"id": 0, "kind": "composite", "members": [4]},
            {"id": 1, "kind": "atomic", "capabilities": [0]},
            {"id": 2, "kind": "atomic", "capabilities": [1]},
            {"id": 3, "kind": "atomic", "capabilities": [2]},
            {"id": 4, "kind": "composite", "members": [1, 2, 3]},
        ],
        "activities": [
            {"id": 0, "trigger_topics": ["a"], "required_roles": [0, 1], "duration": 1},
            {"id": 1, "trigger_topics": ["b"], "required_roles": [0, 1, 2], "duration": 1},
            {"id": 2, "trigger_topics": ["c"], "required_roles": [0, 1, 2], "duration": 1},
        ],
        "environment": [
            {"topic": "a", "injection_soc": 4, "process": {"kind": "scripted", "times": [1, 2, 10, 11]}},
            {"topic": "b", "injection_soc": 4, "process": {"kind": "scripted", "times": [4, 5, 13, 14]}},
            {"topic": "c", "injection_soc": 4, "process": {"kind": "scripted", "times": [7, 8]}},
        ],
        "policy": {
            "permanentify_threshold": 2,
            "prune_failure_threshold": 2,
            "prune_window": 10,
            "failure_injections": [
                {"activity": 0, "start": 10, "stop": 13},
                {"activity": 1, "start": 14, "stop": 17},
            ],
        },
        "horizon": 30,
        "seed": 1,
        "retry_bound": 0,
    }


def test_a_team_stays_blocked_while_its_anchor_lists_it_again(monkeypatch):
    edits = audit_member_lists(monkeypatch)
    trace, _ = engine.run_scenario(engine.scenario_from_dict(shared_member_list_doc()))
    # two SoCs list the same members here, as on ten seeds of the generated family below
    assert edits == {"graft": 2, "remove": 2}
    evolution = [
        (r.tick, r.kind, r.payload["soc"], r.payload["members"])
        for r in trace
        if r.kind in ("Permanentified", "Pruned")
    ]
    # activity 2's team (1, 2, 3) is never promoted: SoC 6, then SoC 4, holds it
    assert evolution == [
        (3, "Permanentified", 5, (1, 2)),
        (6, "Permanentified", 6, (1, 2, 3)),
        (12, "Pruned", 5, (1, 2)),
        (15, "Pruned", 6, (1, 2, 3)),
    ]


def test_generated_anchors_that_list_a_pruned_team_again_keep_the_count_true(monkeypatch):
    edits = audit_member_lists(monkeypatch)
    # sorted member list -> every SoC seen listing it before some remove of this run
    listed_by: dict[tuple[int, ...], set[int]] = {}
    relisted = set()
    remove = Holarchy.remove

    def noted_remove(h, soc):
        for s in h.composites():
            listed_by.setdefault(tuple(sorted(h.holons[s].members)), set()).add(s)
        anchor = remove(h, soc)
        if listed_by.get(tuple(sorted(h.holons[anchor].members)), set()) - {anchor}:
            relisted.add(seed)
        return anchor

    monkeypatch.setattr(Holarchy, "remove", noted_remove)
    for seed in range(40):
        listed_by.clear()
        engine.run_scenario(engine.scenario_from_dict(shared_member_list_scenario_dict(seed)))
    assert edits == {"graft": 86, "remove": 40}
    # on these seeds a prune gives the anchor back a member list that a
    # promoted SoC listed, as in the hand-written shape above
    assert sorted(relisted) == [5, 7, 12, 21, 23, 32, 34, 35, 38, 39]


# -- promotion re-checks only what changed -----------------------------------


def test_an_anchor_stops_blocking_its_member_set_once_it_holds_a_promoted_soc():
    # SoC 4 holds exactly {0, 1, 2}, so signature (0, 1, 2) is blocked until
    # promoting (0, 1) under 4 makes 4's member list (0, 1, 2, 5)
    h = build(atom(0, 0), atom(1, 1), atom(2, 2), soc(4, [0, 1, 2]))
    ledger = ExperienceLedger()
    pair = make_son(0, [(0, 0), (1, 1)], activity=0)
    trio = make_son(1, [(0, 0), (1, 1), (2, 2)], activity=1)
    for t in (1, 2):
        record_outcome(ledger, pair, Outcome.SUCCESS, t, POLICY)
        record_outcome(ledger, trio, Outcome.SUCCESS, t, POLICY)
    # the member sets held when the pass starts decide what it promotes
    assert [(e.soc, e.members) for e in maybe_permanentify(ledger, h)] == [(5, (0, 1))]
    assert ledger.ready == {SonSignature.of(trio)}
    # no prune has happened: the graft itself freed the trio's member set
    assert promotion_due(ledger, h)
    assert [(e.soc, e.parent, e.members) for e in maybe_permanentify(ledger, h)] == [(6, 4, (0, 1, 2))]
    assert ledger.ready == set()
    assert validate(h) == []


class NoScan(dict):
    """A holon map that fails the test if anything iterates over it."""

    def _scanned(self, *args):
        raise AssertionError("iterated over every holon")

    __iter__ = keys = values = items = _scanned


def test_blocked_ready_signatures_cost_no_holarchy_wide_scan(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(0, 0), (1, 1)])
    for t in (1, 2):
        record_outcome(ledger, son, Outcome.SUCCESS, t, POLICY)
    assert maybe_permanentify(ledger, wings) == ()
    # SoC 4 holds {0, 1}; the member sets are known now, so later ticks
    # with only the blocked signature ready look nothing up holon by holon
    wings.holons = NoScan(wings.holons)
    for t in (3, 4, 5):
        assert maybe_permanentify(ledger, wings) == ()
    assert ledger.ready == {SonSignature.of(son)}


def test_a_quiet_tick_prunes_without_looking_at_any_soc(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    for t in (1, 2):
        record_outcome(ledger, son, Outcome.SUCCESS, t, POLICY)
    (promoted,) = maybe_permanentify(ledger, wings)
    record_outcome(ledger, son, Outcome.FAILURE, 3, POLICY)
    assert maybe_prune(ledger, wings, POLICY, 3) == ()
    # neither a failure nor a promotion since: nothing to count, no SoC to read
    ledger.son_outcomes = ledger.promoted = None
    wings.holons = NoScan(wings.holons)
    for t in (4, 5, 6):
        assert maybe_prune(ledger, wings, POLICY, t) == ()


# -- the pruning rule against a brute-force recount ----------------------------


def run_checking_prunes(monkeypatch, scenario):
    """Run with invariant checks on, recounting every pruning pass by brute force.

    Promotions, prunings and failures are tracked here from the events and
    the booked outcomes, not from the ledger. At every pass, the live
    promoted SoCs whose signature failed at least the threshold number of
    times in ``(t - prune_window, t]`` must be exactly the ones pruned, in
    id order.
    """
    failures: dict[SonSignature, list[int]] = {}
    live: dict[int, SonSignature] = {}
    # the SoCs this tick's promotion pass grafted; the pruning pass that
    # follows it in the same tick empties it
    just_promoted: set[int] = set()
    seen = {"promotions": 0, "prunings": 0, "same_tick": 0}

    def booked(ledger, son, outcome, t, policy):
        if outcome is Outcome.FAILURE:
            failures.setdefault(SonSignature.of(son), []).append(t)
        return record_outcome(ledger, son, outcome, t, policy)

    def promoting(ledger, h):
        events = maybe_permanentify(ledger, h)
        for ev in events:
            live[ev.soc] = SonSignature(ev.activity, ev.members)
            just_promoted.add(ev.soc)
        seen["promotions"] += len(events)
        return events

    def pruning(ledger, h, policy, t):
        expected = [
            s
            for s in sorted(live)
            if sum(1 for ft in failures.get(live[s], ()) if t - policy.prune_window < ft <= t)
            >= policy.prune_failure_threshold
        ]
        events = maybe_prune(ledger, h, policy, t)
        assert [ev.soc for ev in events] == expected, t
        for ev in events:
            assert ev.members == live.pop(ev.soc).members
            seen["same_tick"] += ev.soc in just_promoted
        just_promoted.clear()
        seen["prunings"] += len(events)
        return events

    monkeypatch.setattr(engine, "record_outcome", booked)
    monkeypatch.setattr(engine, "maybe_permanentify", promoting)
    monkeypatch.setattr(engine, "maybe_prune", pruning)
    engine.run_scenario(scenario, debug=True)
    return seen


@pytest.mark.parametrize("name", ["promotion.json", "pruning.json"])
def test_pruning_matches_a_brute_force_recount_on_shipped_scenarios(monkeypatch, name):
    seen = run_checking_prunes(monkeypatch, engine.load_scenario_file(str(SCENARIOS / name)))
    assert seen["promotions"] >= 1
    assert seen["prunings"] >= (1 if name == "pruning.json" else 0)


def test_pruning_matches_a_brute_force_recount_on_generated_scenarios(monkeypatch):
    total = {"promotions": 0, "prunings": 0, "same_tick": 0}
    for seed in range(30, 70):
        for key, count in run_checking_prunes(monkeypatch, random_scenario(seed, horizon=300)).items():
            total[key] += count
    # seeds 32, 40, 49 and 54 prune; seed 40 prunes a team in the tick
    # that promoted it
    assert total["promotions"] >= 20
    assert total["prunings"] >= 4
    assert total["same_tick"] >= 1


def test_promotion_due_scans_again_only_after_ready_or_a_member_list_changes(wings, monkeypatch):
    ledger = ExperienceLedger()
    scans = []
    holds = wings.holds_members
    monkeypatch.setattr(wings, "holds_members", lambda members: scans.append(members) or holds(members))

    def answer():
        scans.clear()
        return promotion_due(ledger, wings), len(scans)

    # wing 4 lists exactly actors 0 and 1, so their team waits
    pair = make_son(0, [(0, 0), (1, 1)])
    for t in (1, 2):
        record_outcome(ledger, pair, Outcome.SUCCESS, t, POLICY)
    assert answer() == (False, 1)
    assert answer() == (False, 0)
    # a success that puts a free team in ready
    trio = make_son(1, [(0, 0), (1, 1), (2, 2)], activity=1)
    for t in (3, 4):
        record_outcome(ledger, trio, Outcome.SUCCESS, t, POLICY)
    assert answer()[0] and scans
    assert answer() == (True, 0)
    # a graft relists roof 6, so the trio is promoted and the pair waits
    assert [e.members for e in maybe_permanentify(ledger, wings)] == [(0, 1, 2)]
    assert answer() == (False, 1)
    assert answer() == (False, 0)
    # a graft or a remove outside the ledger's passes is a member list change too
    team = wings.graft((0, 2), 6)
    assert answer() == (False, 1)
    wings.remove(team)
    assert answer() == (False, 1)
