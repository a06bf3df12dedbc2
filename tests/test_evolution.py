"""Promotion of recurring overlays and pruning of failing ones."""

from __future__ import annotations

from pathlib import Path

import pytest

from fso_sim import engine
from fso_sim.canon import Son
from fso_sim.evolution import (
    EvolutionPolicy,
    ExperienceLedger,
    FailureWindow,
    Outcome,
    SonSignature,
    connection_strength,
    maybe_permanentify,
    maybe_prune,
    record_outcome,
)
from fso_sim.holarchy import (
    HolarchySpec,
    HolonKind,
    HolonOrigin,
    HolonSpec,
    build_holarchy,
    register_initial_services,
    validate,
)

from generators import random_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def atom(i, *caps):
    return HolonSpec(id=i, kind=HolonKind.ATOMIC, capabilities=tuple(caps))


def soc(i, members):
    return HolonSpec(id=i, kind=HolonKind.COMPOSITE, members=tuple(members))


def build(*holons, roles=frozenset({0, 1, 2})):
    h = build_holarchy(HolarchySpec(roles=roles, holons=tuple(holons)))
    register_initial_services(h)
    return h


def make_son(sid, members, activity=0, formed=0, duration=1):
    return Son(
        id=sid,
        activity=activity,
        request=sid,
        members=tuple(members),
        spanned_socs=frozenset(),
        formed_at=formed,
        dissolves_at=formed + duration,
    )


POLICY = EvolutionPolicy(
    permanentify_threshold=2,
    prune_failure_threshold=2,
    prune_window=10,
    strength_increment=0.5,
)


@pytest.fixture
def wings():
    # actors 0,1 on wing 4; actor 2 on wing 5; roof 6
    return build(atom(0, 0), atom(1, 1), atom(2, 2), soc(4, [0, 1]), soc(5, [2]), soc(6, [4, 5]))


def test_outcomes_accumulate_and_strengthen(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(0, 0), (2, 2)])
    record_outcome(ledger, son, Outcome.SUCCESS, 3, POLICY)
    record_outcome(ledger, son, Outcome.FAILURE, 7, POLICY)
    sig = SonSignature.of(son)
    assert ledger.son_outcomes[sig].successes == 1
    assert ledger.son_outcomes[sig].failures == 1
    assert ledger.son_outcomes[sig].failure_times == [7]
    assert connection_strength(ledger, 0, 2) == 0.5
    assert connection_strength(ledger, 2, 0) == 0.5
    assert connection_strength(ledger, 0, 1) == 0.0
    assert ledger.holon_perf[0].completed == 1
    assert ledger.holon_perf[0].failed == 1


def test_promotion_waits_for_threshold(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    record_outcome(ledger, son, Outcome.SUCCESS, 1, POLICY)
    h2, events = maybe_permanentify(ledger, wings, POLICY, 1)
    assert events == ()
    assert h2 is wings


def test_promotion_grafts_under_lowest_common_community(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    record_outcome(ledger, son, Outcome.SUCCESS, 1, POLICY)
    record_outcome(ledger, son, Outcome.SUCCESS, 4, POLICY)
    h2, events = maybe_permanentify(ledger, wings, POLICY, 4)
    assert len(events) == 1
    ev = events[0]
    assert ev.members == (1, 2)
    assert ev.parent == 6
    new = h2.holons[ev.soc]
    assert new.origin is HolonOrigin.PERMANENTIFIED
    assert new.representative == 1
    assert h2.parent[ev.soc] == 6
    # members keep their original primary communities
    assert h2.parent[1] == 4 and h2.parent[2] == 5
    assert ev.soc in h2.holons[6].members
    # the anchor registry now punctualizes the new community too
    vias = {(e.provider, e.role, e.via) for e in h2.registries[6].service_entries if e.via == ev.soc}
    assert vias == {(1, 1, ev.soc), (1, 2, ev.soc)}
    assert [e for e in h2.registries[ev.soc].service_entries] != []
    assert validate(h2) == []
    # the original value is untouched
    assert ev.soc not in wings.holons
    assert all(e.via != ev.soc for e in wings.registries[6].service_entries)


def test_promotion_happens_once_per_signature(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    for t in (1, 2, 3):
        record_outcome(ledger, son, Outcome.SUCCESS, t, POLICY)
    h2, first = maybe_permanentify(ledger, wings, POLICY, 3)
    record_outcome(ledger, son, Outcome.SUCCESS, 9, POLICY)
    h3, second = maybe_permanentify(ledger, h2, POLICY, 9)
    assert len(first) == 1
    assert second == ()
    assert h3 is h2


def test_promotion_skips_existing_member_sets(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(0, 0), (1, 1)])
    record_outcome(ledger, son, Outcome.SUCCESS, 1, POLICY)
    record_outcome(ledger, son, Outcome.SUCCESS, 2, POLICY)
    # SoC 4 already holds exactly {0, 1}
    h2, events = maybe_permanentify(ledger, wings, POLICY, 2)
    assert events == ()
    assert h2 is wings


def test_prune_needs_windowed_failures(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    record_outcome(ledger, son, Outcome.SUCCESS, 1, POLICY)
    record_outcome(ledger, son, Outcome.SUCCESS, 2, POLICY)
    h2, events = maybe_permanentify(ledger, wings, POLICY, 2)
    soc_id = events[0].soc

    record_outcome(ledger, son, Outcome.FAILURE, 5, POLICY)
    h3, pruned = maybe_prune(ledger, h2, POLICY, 5)
    assert pruned == ()

    # a failure far outside the window does not count
    record_outcome(ledger, son, Outcome.FAILURE, 40, POLICY)
    h3, pruned = maybe_prune(ledger, h2, POLICY, 40)
    assert pruned == ()

    record_outcome(ledger, son, Outcome.FAILURE, 42, POLICY)
    h3, pruned = maybe_prune(ledger, h2, POLICY, 42)
    assert len(pruned) == 1
    assert pruned[0].soc == soc_id
    assert soc_id not in h3.holons
    assert soc_id not in h3.parent
    assert soc_id not in h3.registries
    assert h3.holons[6].members == wings.holons[6].members
    assert all(e.via != soc_id for e in h3.registries[6].service_entries)
    assert validate(h3) == []


def test_prune_restores_original_shape(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    record_outcome(ledger, son, Outcome.SUCCESS, 1, POLICY)
    record_outcome(ledger, son, Outcome.SUCCESS, 2, POLICY)
    h2, events = maybe_permanentify(ledger, wings, POLICY, 2)
    record_outcome(ledger, son, Outcome.FAILURE, 3, POLICY)
    record_outcome(ledger, son, Outcome.FAILURE, 4, POLICY)
    h3, _ = maybe_prune(ledger, h2, POLICY, 4)
    assert h3.holons == wings.holons
    assert h3.parent == wings.parent
    assert {i: {(e.provider, e.role, e.via) for e in r.service_entries} for i, r in h3.registries.items()} == {
        i: {(e.provider, e.role, e.via) for e in r.service_entries} for i, r in wings.registries.items()
    }


def test_pruned_signature_is_not_promoted_again(wings):
    ledger = ExperienceLedger()
    son = make_son(0, [(1, 1), (2, 2)])
    for t in (1, 2):
        record_outcome(ledger, son, Outcome.SUCCESS, t, POLICY)
    h2, _ = maybe_permanentify(ledger, wings, POLICY, 2)
    for t in (3, 4):
        record_outcome(ledger, son, Outcome.FAILURE, t, POLICY)
    h3, _ = maybe_prune(ledger, h2, POLICY, 4)
    for t in (5, 6, 7):
        record_outcome(ledger, son, Outcome.SUCCESS, t, POLICY)
    h4, events = maybe_permanentify(ledger, h3, POLICY, 7)
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


def test_policy_rejects_nonsense():
    with pytest.raises(ValueError):
        EvolutionPolicy(permanentify_threshold=0, prune_failure_threshold=1, prune_window=1)
    with pytest.raises(ValueError):
        EvolutionPolicy(permanentify_threshold=1, prune_failure_threshold=1, prune_window=0)


# -- the role-atom cache survives evolution -----------------------------------


def warm_role_atoms(h):
    """Fill the cache for every SoC and role; later checks read it back."""
    for s in h.composites():
        for r in h.roles:
            h.role_atoms(s, r)


def assert_role_atoms_fresh(h):
    for s in h.composites():
        for r in sorted(h.roles):
            fresh = sorted(a for a in h.subtree_atoms(s) if r in h.holons[a].capabilities)
            assert list(h.role_atoms(s, r)) == fresh, (s, r)


def run_checking_role_atoms(monkeypatch, scenario):
    """Run a scenario, checking the cache after every promotion and pruning.

    The holarchy going into each evolution step has a full cache, so every
    check reads entries handed on from before the step.
    """
    seen = {"promotions": 0, "prunings": 0}

    def checked(fn, counter):
        def evolve(ledger, h, policy, t):
            warm_role_atoms(h)
            h2, events = fn(ledger, h, policy, t)
            if events:
                seen[counter] += len(events)
                assert_role_atoms_fresh(h2)
            return h2, events

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
    h2, (promoted,) = maybe_permanentify(ledger, wings, POLICY, 2)
    assert promoted.soc == max(h2.holons)
    warm_role_atoms(h2)
    assert h2.role_atoms(promoted.soc, 1) == (1,)

    for t in (3, 4):
        record_outcome(ledger, first, Outcome.FAILURE, t, POLICY)
    h3, (pruned,) = maybe_prune(ledger, h2, POLICY, 4)
    assert pruned.soc == promoted.soc
    assert_role_atoms_fresh(h3)

    second = make_son(1, [(0, 0), (2, 2)])
    for t in (5, 6):
        record_outcome(ledger, second, Outcome.SUCCESS, t, POLICY)
    h4, (reused,) = maybe_permanentify(ledger, h3, POLICY, 6)
    assert reused.soc == promoted.soc and reused.members == (0, 2)
    assert h4.role_atoms(reused.soc, 0) == (0,)
    assert h4.role_atoms(reused.soc, 1) == ()
    assert_role_atoms_fresh(h4)
    # the holarchy the pruned team lived in still sees it
    assert h2.role_atoms(promoted.soc, 1) == (1,)
