"""The two canon rules: local staffing and exception escalation."""

from __future__ import annotations

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from fso_sim import canon
from fso_sim.activation import ActivationError, Binding, enroll, initial_state, release
from fso_sim.canon import (
    DATA_MISSING,
    ActivityTable,
    CanonError,
    ResponseActivity,
    Staffing,
    _solve,
    dissolve_son,
    form_son,
    publish,
    resolve_request,
)
from fso_sim.holarchy import (
    Holarchy,
    HolarchyError,
    Holon,
    HolonKind,
    InformationItem,
    build_holarchy,
    register_initial_services,
)

from generators import random_scenario
from oracles import brute_force_solve, full_pool_resolve, oracle_resolve


def atom(i, *caps):
    return Holon(id=i, kind=HolonKind.ATOMIC, capabilities=frozenset(caps))


def soc(i, members):
    members = tuple(members)
    return Holon(id=i, kind=HolonKind.COMPOSITE, members=members, representative=min(members))


def build(*holons, roles=frozenset({0, 1, 2, 3})):
    h = build_holarchy(holons, roles)
    register_initial_services(h)
    return h


def act(id=0, topics=("ping",), roles=(0,), data=(), duration=1):
    return ResponseActivity(
        id=id,
        trigger_topics=frozenset(topics),
        required_roles=tuple(sorted(roles)),
        required_data=frozenset(data),
        duration=duration,
    )


def item(topic, t=0, source=0):
    return InformationItem(published_at=t, source_index=0, source=source, topic=topic)


# -- publication -------------------------------------------------------------


def test_publish_returns_triggered_activities_in_id_order():
    table = ActivityTable(
        activities=(
            act(id=2, topics=("ping",)),
            act(id=0, topics=("ping", "pong")),
            act(id=1, topics=("pong",)),
        )
    )
    h = build(atom(0, 0), soc(1, [0]))
    reg = h.registries[1]
    hit = publish(reg, item("ping"), table)
    assert [a.id for a in hit] == [0, 2]
    assert reg.topics_present() == {"ping"}


def test_publish_rejects_unknown_topics_and_time_travel():
    table = ActivityTable(activities=(act(),))
    h = build(atom(0, 0), soc(1, [0]))
    reg = h.registries[1]
    with pytest.raises(CanonError, match="topic 'mystery' is not declared anywhere"):
        publish(reg, item("mystery"), table)
    publish(reg, item("ping", t=5), table)
    with pytest.raises(CanonError, match="after t="):
        publish(reg, item("ping", t=4), table)


def test_data_topics_are_publishable_without_triggering():
    table = ActivityTable(activities=(act(data=("reading",)),))
    h = build(atom(0, 0), soc(1, [0]))
    assert publish(h.registries[1], item("reading"), table) == ()


# -- the guard: hop 0 at a single-level holarchy -----------------------------


def staffed(soc, assignment):
    """What resolution from root SoC ``soc`` returns when it staffs at hop 0."""
    return Staffing(hops=(), missing=(), assignment=assignment, resolved_soc=soc, spanned_socs=(soc,))


def unstaffed(soc, missing):
    """What resolution from root SoC ``soc`` returns when hop 0 fails."""
    return Staffing(hops=(), missing=missing, assignment=(), resolved_soc=soc, spanned_socs=())


def test_guard_enabled_with_local_providers():
    h = build(atom(0, 0), atom(1, 1), soc(2, [0, 1]))
    result = resolve_request(act(roles=(0, 1)), 2, h, initial_state(h))
    assert result == staffed(2, ((0, 0), (1, 1)))


def test_guard_reports_missing_roles():
    h = build(atom(0, 0), soc(1, [0]))
    result = resolve_request(act(roles=(0, 1, 1)), 1, h, initial_state(h))
    assert result == unstaffed(1, (1, 1))


def test_guard_counts_role_multiplicity():
    h = build(atom(0, 0), atom(1, 0), soc(2, [0, 1]))
    state = initial_state(h)
    assert resolve_request(act(roles=(0, 0)), 2, h, state).missing == ()
    result = resolve_request(act(roles=(0, 0, 0)), 2, h, state)
    assert result == unstaffed(2, (0,))


def test_guard_ignores_busy_actors():
    h = build(atom(0, 0), atom(1, 0), soc(2, [0, 1]))
    state = initial_state(h)
    enroll(state, h, 0, 0, son_id=9)
    result = resolve_request(act(roles=(0,)), 2, h, state)
    assert result == staffed(2, ((1, 0),))


def test_guard_requires_published_data():
    h = build(atom(0, 0), soc(1, [0]))
    table = ActivityTable(activities=(act(data=("reading",)),))
    missing = resolve_request(act(data=("reading",)), 1, h, initial_state(h))
    assert missing == unstaffed(1, (DATA_MISSING,))
    publish(h.registries[1], item("reading"), table)
    assert resolve_request(act(data=("reading",)), 1, h, initial_state(h)).missing == ()


def test_guard_prefers_greedy_breaking_assignment():
    # the naive pick takes actor 0 for role 0 and then fails on role 1;
    # the only workable split gives role 0 to actor 1
    h = build(atom(0, 0, 1), atom(1, 0), soc(2, [0, 1]))
    result = resolve_request(act(roles=(0, 1)), 2, h, initial_state(h))
    assert result == staffed(2, ((1, 0), (0, 1)))


def test_guard_assignment_is_lexicographically_least():
    h = build(atom(0, 0, 1), atom(1, 0, 1), atom(2, 0), soc(3, [0, 1, 2]))
    result = resolve_request(act(roles=(0, 1)), 3, h, initial_state(h))
    # role 0 could use 0, 1 or 2; taking 0 still leaves 1 for role 1
    assert result == staffed(3, ((0, 0), (1, 1)))


# -- escalation --------------------------------------------------------------


@pytest.fixture
def tower():
    # atoms spread over two floors: 0,1 on floor 4; 2 on floor 5; root 6
    return build(
        atom(0, 0),
        atom(1, 1),
        atom(2, 2),
        soc(4, [0, 1]),
        soc(5, [2]),
        soc(6, [4, 5]),
    )


def test_resolve_locally_when_possible(tower):
    plan = resolve_request(act(roles=(0, 1)), 4, tower, initial_state(tower))
    assert plan.missing == ()
    assert plan.resolved_soc == 4
    assert plan.hops == ()
    assert plan.spanned_socs == (4,)


def test_resolve_escalates_and_spans_communities(tower):
    plan = resolve_request(act(roles=(1, 2)), 4, tower, initial_state(tower))
    assert plan.missing == ()
    assert len(plan.hops) == 1
    assert plan.resolved_soc == 6
    assert plan.assignment == ((1, 1), (2, 2))
    assert plan.spanned_socs == (4, 5)
    assert [(hop.from_soc, hop.to_soc, hop.hop) for hop in plan.hops] == [(4, 6, 1)]
    assert plan.hops[0].missing == (2,)


def test_resolve_fails_at_root_with_chain(tower):
    out = resolve_request(act(roles=(3,)), 4, tower, initial_state(tower))
    assert out.assignment == ()
    assert len(out.hops) == 1
    assert out.resolved_soc == 6
    assert out.missing == (3,)
    assert [(hop.from_soc, hop.to_soc) for hop in out.hops] == [(4, 6)]


def test_resolve_sees_data_published_below(tower):
    table = ActivityTable(activities=(act(roles=(2,), data=("reading",)),))
    publish(tower.registries[4], item("reading"), table)
    plan = resolve_request(act(roles=(2,), data=("reading",)), 4, tower, initial_state(tower))
    # the data lives at SoC 4, the actor on the sibling floor; only the
    # escalated view that keeps the visited chain can satisfy both
    assert plan.missing == ()
    assert len(plan.hops) == 1
    assert plan.assignment == ((2, 2),)


def test_resolve_does_not_see_sibling_data(tower):
    table = ActivityTable(activities=(act(roles=(0,), data=("reading",)),))
    publish(tower.registries[5], item("reading"), table)
    out = resolve_request(act(roles=(0,), data=("reading",)), 4, tower, initial_state(tower))
    assert out.assignment == ()
    assert out.missing == (DATA_MISSING,)


@pytest.mark.parametrize("start", ["promoted", 0, 99], ids=["promoted SoC", "actor", "unknown id"])
def test_resolve_starts_only_at_a_scenario_soc(tower, start):
    # a promoted SoC keeps no registry, so asking it for data must not
    # reach for one
    if start == "promoted":
        start = tower.graft((0, 2), 6)
    with pytest.raises(CanonError, match=f"cannot resolve from {start}, "):
        resolve_request(act(roles=(0,), data=("reading",)), start, tower, initial_state(tower))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_staffing_climbs_the_chain_it_records(seed, data):
    scenario = random_scenario(seed, horizon=20, quiet_evolution=True)
    h = build_holarchy(scenario.holons, scenario.roles)
    register_initial_services(h)
    for topic in sorted({t for a in scenario.activities.activities for t in a.required_data}):
        if data.draw(st.booleans(), label=f"publish {topic}"):
            soc = data.draw(st.sampled_from(h.composites()), label=f"{topic} at")
            publish(h.registries[soc], item(topic, source=soc), scenario.activities)
    state = initial_state(h)
    for a in h.atoms():
        caps = sorted(h.holons[a].capabilities)
        if caps and data.draw(st.booleans(), label=f"{a} busy"):
            enroll(state, h, a, caps[0], son_id=99)

    for activity in scenario.activities.activities:
        for start in h.composites():
            got = resolve_request(activity, start, h, state)
            chain = h.chain_to_root(start)
            n = len(got.hops)
            assert [(hop.from_soc, hop.to_soc, hop.hop) for hop in got.hops] == [
                (chain[i], chain[i + 1], i + 1) for i in range(n)
            ]
            assert got.resolved_soc == chain[n]
            actors = [a for a, _ in got.assignment]
            fills_every_slot = (
                tuple(role for _, role in got.assignment) == activity.required_roles
                and len(set(actors)) == len(actors)
                and all(a in state.inactive and role in h.holons[a].capabilities for a, role in got.assignment)
            )
            assert (got.missing == ()) == fills_every_slot
            if got.missing:
                # unresolved means escalated past the root
                assert (got.assignment, got.resolved_soc, got.spanned_socs) == ((), chain[-1], ())


# -- answers from memory ------------------------------------------------------


def count_scans(monkeypatch):
    """The SoCs whose role atoms a resolve reads from now on. A fresh
    resolve reads one per hop, and an answer from memory reads none."""
    socs = []
    atoms_by_role = Holarchy.atoms_by_role

    def counted(self, soc):
        socs.append(soc)
        return atoms_by_role(self, soc)

    monkeypatch.setattr(Holarchy, "atoms_by_role", counted)
    return socs


def test_an_actor_read_busy_that_comes_free_changes_the_answer(monkeypatch):
    h = build(atom(0, 0), atom(1, 0), soc(2, [0, 1]))
    state, memo = initial_state(h), {}
    enroll(state, h, 0, 0, son_id=9)
    assert resolve_request(act(), 2, h, state, memo) == staffed(2, ((1, 0),))
    # actor 1 is still idle, but 0, which the scan passed over, now ranks first
    release(state, 0)
    scans = count_scans(monkeypatch)
    assert resolve_request(act(), 2, h, state, memo) == staffed(2, ((0, 0),))
    assert scans == [2]


def test_an_actor_read_idle_that_turns_busy_is_not_replayed(monkeypatch):
    h = build(atom(0, 0), atom(1, 0), soc(2, [0, 1]))
    state, memo = initial_state(h), {}
    assert resolve_request(act(), 2, h, state, memo) == staffed(2, ((0, 0),))
    enroll(state, h, 0, 0, son_id=9)
    scans = count_scans(monkeypatch)
    assert resolve_request(act(), 2, h, state, memo) == staffed(2, ((1, 0),))
    assert scans == [2]


def test_an_actor_the_scan_never_read_changes_no_answer(monkeypatch):
    # one slot: the scan stops at actor 0 and never reads 1, nor 2 (role 1)
    h = build(atom(0, 0), atom(1, 0), atom(2, 1), soc(3, [0, 1, 2]))
    state, memo = initial_state(h), {}
    first = resolve_request(act(), 3, h, state, memo)
    enroll(state, h, 1, 0, son_id=8)
    enroll(state, h, 2, 1, son_id=9)
    scans = count_scans(monkeypatch)
    assert resolve_request(act(), 3, h, state, memo) is first
    assert scans == []


def test_the_last_staffed_and_the_last_failed_answer_are_both_kept(monkeypatch):
    h = build(atom(0, 0), soc(1, [0]))
    state, memo = initial_state(h), {}
    staffed_answer = resolve_request(act(), 1, h, state, memo)
    enroll(state, h, 0, 0, son_id=9)
    failed_answer = resolve_request(act(), 1, h, state, memo)
    assert failed_answer == unstaffed(1, (0,))
    scans = count_scans(monkeypatch)
    release(state, 0)
    assert resolve_request(act(), 1, h, state, memo) is staffed_answer
    enroll(state, h, 0, 0, son_id=10)
    assert resolve_request(act(), 1, h, state, memo) is failed_answer
    assert scans == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.data())
def test_an_answer_from_memory_is_the_answer_resolved_afresh(seed, data):
    # evolution grafts and removes teams between steps and never empties the
    # memo: requests start at scenario SoCs, whose actors no graft changes
    scenario = random_scenario(seed, horizon=20, quiet_evolution=True)
    h = build_holarchy(scenario.holons, scenario.roles)
    register_initial_services(h)
    state, memo = initial_state(h), {}
    starts = h.composites()
    capable = [a for a in h.atoms() if h.holons[a].capabilities]
    grafted = []
    for step in range(data.draw(st.integers(1, 6), label="steps")):
        for a in data.draw(st.lists(st.sampled_from(capable), max_size=4), label=f"flips {step}") if capable else ():
            if a in state.inactive:
                enroll(state, h, a, min(h.holons[a].capabilities), son_id=99)
            else:
                release(state, a)
        edit = data.draw(st.sampled_from(["none", "graft", "remove"]), label=f"edit {step}")
        if edit == "graft":
            anchor = data.draw(st.sampled_from(starts), label=f"anchor {step}")
            under = sorted(h.subtree_atoms(anchor))
            team = data.draw(st.lists(st.sampled_from(under), min_size=1, unique=True), label=f"team {step}")
            grafted.append(h.graft(tuple(sorted(team)), anchor))
        elif edit == "remove" and grafted:
            h.remove(grafted.pop(data.draw(st.integers(0, len(grafted) - 1), label=f"removed {step}")))
        for activity in scenario.activities.activities:
            for start in starts:
                assert resolve_request(activity, start, h, state, memo) == resolve_request(activity, start, h, state)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_an_answer_replayed_from_memory_is_the_fresh_answer(data):
    # two floors under a root, actors that may play several roles and
    # activities that may repeat a role, so hops escalate and slots collide
    n_atoms = data.draw(st.integers(2, 7), label="atoms")
    caps = [data.draw(st.frozensets(st.integers(0, 2), min_size=1, max_size=3), label=f"caps{a}") for a in range(n_atoms)]
    split = data.draw(st.integers(1, n_atoms - 1), label="split")
    floors = (n_atoms, n_atoms + 1)
    h = build(
        *(atom(a, *caps[a]) for a in range(n_atoms)),
        soc(floors[0], range(split)),
        soc(floors[1], range(split, n_atoms)),
        soc(n_atoms + 2, floors),
    )
    roles = data.draw(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=4), min_size=1, max_size=3), label="activities")
    activities = [act(id=i, roles=r) for i, r in enumerate(roles)]
    state, memo = initial_state(h), {}
    replays = 0
    for step in range(data.draw(st.integers(1, 8), label="steps")):
        for a in data.draw(st.lists(st.integers(0, n_atoms - 1), max_size=3), label=f"flips {step}"):
            if a in state.inactive:
                enroll(state, h, a, min(caps[a]), son_id=99)
            else:
                release(state, a)
        for activity in activities:
            for start in floors:
                stored = [answer for answer, _, _ in memo.get((activity.id, start), {}).values()]
                got = resolve_request(activity, start, h, state, memo)
                replays += any(got is answer for answer in stored)
                assert got == resolve_request(activity, start, h, state)
    event("some answer replayed" if replays else "no answer replayed")


# -- first fit, and the matching only where a slot's idle actors are all held --


@st.composite
def one_soc_cases(draw):
    """Each actor's roles, the busy actors, an activity's slots, its data
    needs and the data published, for a request to a lone SoC: one hop.

    A few actors, each playing up to three roles, crowd the slots, so a slot
    often finds every idle actor of its role held by an earlier slot.
    """
    n_atoms = draw(st.integers(1, 6))
    caps = tuple(draw(st.frozensets(st.integers(0, 2), max_size=3)) for _ in range(n_atoms))
    busy = draw(st.frozensets(st.integers(0, n_atoms - 1)))
    slots = tuple(sorted(draw(st.lists(st.integers(0, 2), min_size=1, max_size=5))))
    needs = draw(st.frozensets(st.sampled_from("xy")))
    published = draw(st.frozensets(st.sampled_from("xy")))
    return caps, busy, slots, needs, published


@settings(max_examples=400, deadline=None)
@given(one_soc_cases())
# actor 0 plays both roles: role 1 finds it held by role 0's slot, and the
# matching moves role 0 to actor 1
@example(((frozenset({0, 1}), frozenset({0})), frozenset(), (0, 1), frozenset(), frozenset()))
# held as well, but nobody can take role 0 over: role 1 is missing
@example(((frozenset({0, 1}),), frozenset(), (0, 1), frozenset(), frozenset({"x"})))
# a repeated role past a busy actor, and a role nobody plays, then a data gap
@example(((frozenset({0}),) * 3, frozenset({0}), (0, 0, 2), frozenset({"x", "y"}), frozenset({"y"})))
def test_a_hops_first_fit_answer_is_the_matching_on_the_best_s_pool(case):
    caps, busy, slots, needs, published = case
    n = len(caps)
    h = build(*(atom(a, *caps[a]) for a in range(n)), soc(n, range(n)))
    table = ActivityTable(activities=(act(data=("x", "y")),))
    for topic in sorted(published):
        publish(h.registries[n], item(topic), table)
    state = initial_state(h)
    for a in sorted(busy):
        if caps[a]:
            enroll(state, h, a, min(caps[a]), son_id=99)
    activity = act(roles=slots, data=needs)
    pool = {
        role: [a for a in range(n) if role in caps[a] and a in state.inactive][: len(slots)]
        for role in set(slots)
    }
    got = resolve_request(activity, n, h, state)
    assert (got.missing, got.assignment) == _solve(activity, pool, set(published))


def test_a_hop_runs_the_matching_only_when_a_slots_idle_actors_are_all_held(monkeypatch):
    h = build(atom(0, 0, 1), atom(1, 0), soc(2, [0, 1]))
    state = initial_state(h)
    solves = []
    solve = canon._solve

    def counted(*args):
        solves.append(args[0].required_roles)
        return solve(*args)

    monkeypatch.setattr(canon, "_solve", counted)
    # first fit staffs every slot, and a role nobody plays is missing at once
    assert resolve_request(act(roles=(0, 0)), 2, h, state) == staffed(2, ((0, 0), (1, 0)))
    assert resolve_request(act(roles=(0, 3)), 2, h, state) == unstaffed(2, (3,))
    enroll(state, h, 0, 1, son_id=9)
    # role 1's one actor is busy: no idle actor, so missing without a matching
    assert resolve_request(act(roles=(1,)), 2, h, state) == unstaffed(2, (1,))
    assert solves == []
    release(state, 0)
    # role 0's slot takes actor 0, the only actor of role 1
    assert resolve_request(act(roles=(0, 1)), 2, h, state) == staffed(2, ((1, 0), (0, 1)))
    assert solves == [(0, 1)]


# -- overlay lifecycle -------------------------------------------------------


def test_form_and_dissolve_round_trip(tower):
    state = initial_state(tower)
    activity = act(roles=(1, 2), duration=4)
    plan = resolve_request(activity, 4, tower, state)
    son = form_son(activity, plan.assignment, son_id=0, t=10, state=state, h=tower)
    assert son.activity == activity.id
    assert son.dissolves_at == 14
    assert state.active == {1: Binding(role=1, son_id=0), 2: Binding(role=2, son_id=0)}
    assert state.inactive == {0}
    with pytest.raises(CanonError, match="SON 0 dissolves at 14, not 13"):
        dissolve_son(son, 13, state)
    assert state.inactive == {0}
    dissolve_son(son, 14, state)
    assert state == initial_state(tower)


def test_form_rejects_stale_plans(tower):
    state = initial_state(tower)
    activity = act(roles=(1,))
    plan = resolve_request(activity, 4, tower, state)
    enroll(state, tower, 1, 1, son_id=3)
    with pytest.raises(CanonError, match="actor 1 became busy before SON 4 formed"):
        form_son(activity, plan.assignment, son_id=4, t=0, state=state, h=tower)


def test_form_enrolls_nobody_when_a_member_is_busy(tower):
    state = initial_state(tower)
    activity = act(roles=(0, 1, 2))
    plan = resolve_request(activity, 4, tower, state)
    assert plan.assignment == ((0, 0), (1, 1), (2, 2))
    # the last planned member is taken, so enrolling as we go would have
    # enrolled 0 and 1 before noticing
    enroll(state, tower, 2, 2, son_id=3)
    with pytest.raises(CanonError, match="actor 2 became busy before SON 4 formed"):
        form_son(activity, plan.assignment, son_id=4, t=0, state=state, h=tower)
    assert state.active == {2: Binding(role=2, son_id=3)}
    assert state.inactive == {0, 1}


@pytest.mark.parametrize(
    ("assignment", "error", "message"),
    [
        # actor 1 plays only role 1, so the last member cannot be staffed
        (((0, 0), (2, 2), (1, 2)), ActivationError, "actor 1 cannot play role 2"),
        (((0, 0), (1, 1), (0, 0)), ActivationError, "actor 0 is already enrolled"),
        (((0, 0), (1, 1), (99, 2)), HolarchyError, "holon 99 does not exist"),
        (((0, 0), (4, 1)), HolarchyError, "holon 4 is composite"),
    ],
    ids=["missing capability", "repeated actor", "unknown holon", "composite holon"],
)
def test_a_form_that_raises_leaves_the_state_as_it_found_it(tower, assignment, error, message):
    state = initial_state(tower)
    before = (set(state.inactive), dict(state.active))
    with pytest.raises(error, match=message):
        form_son(act(roles=(0, 1, 2)), assignment, son_id=0, t=0, state=state, h=tower)
    assert (state.inactive, state.active) == before


def test_dissolve_releases_nobody_on_a_mismatched_binding(tower):
    state = initial_state(tower)
    activity = act(roles=(0, 1, 2), duration=2)
    plan = resolve_request(activity, 4, tower, state)
    son = form_son(activity, plan.assignment, son_id=0, t=0, state=state, h=tower)
    # the last member is rebound to another overlay behind the SON's back
    release(state, 2)
    enroll(state, tower, 2, 2, son_id=1)
    with pytest.raises(CanonError, match="actor 2 is not bound to SON 0 as role 2"):
        dissolve_son(son, 2, state)
    assert state.active == {
        0: Binding(role=0, son_id=0),
        1: Binding(role=1, son_id=0),
        2: Binding(role=2, son_id=1),
    }
    assert state.inactive == set()


# -- agreement with the exhaustive oracle ------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_solver_agrees_with_brute_force(data):
    n_atoms = data.draw(st.integers(2, 6), label="atoms")
    caps = [
        data.draw(st.frozensets(st.integers(0, 3), max_size=3), label=f"caps{a}")
        for a in range(n_atoms)
    ]
    holons = [atom(a, *caps[a]) for a in range(n_atoms)]
    split = data.draw(st.integers(1, n_atoms), label="split")
    left, right = list(range(split)), list(range(split, n_atoms))
    tops = []
    if left:
        holons.append(soc(n_atoms, left))
        tops.append(n_atoms)
    if right:
        holons.append(soc(n_atoms + 1, right))
        tops.append(n_atoms + 1)
    holons.append(soc(n_atoms + 2, tops))
    h = build(*holons)

    busy = data.draw(st.frozensets(st.sampled_from(range(n_atoms)), max_size=n_atoms - 1), label="busy")
    state = initial_state(h)
    for a in sorted(busy):
        if caps[a]:
            enroll(state, h, a, min(caps[a]), son_id=99)

    roles = data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4), label="roles")
    activity = act(roles=tuple(sorted(roles)))
    start = tops[0]

    got = resolve_request(activity, start, h, state)
    want = oracle_resolve(activity, start, h, state)
    assert len(got.hops) == want["hop_count"]
    if want["kind"] == "plan":
        assert got.missing == ()
        assert got.resolved_soc == want["resolved_soc"]
        assert got.assignment == want["assignment"]
    else:
        assert got.assignment == ()
        assert tuple(sorted(got.missing)) == tuple(sorted(want["missing"]))


# -- only the best s per role matter -----------------------------------------


def test_busy_actors_among_the_best_s_are_passed_over():
    h = build(atom(0, 0), atom(1, 0), atom(2, 0), atom(3, 0), atom(4, 1), soc(5, [0, 1, 2, 3, 4]))
    state = initial_state(h)
    enroll(state, h, 0, 0, son_id=98)
    enroll(state, h, 2, 0, son_id=99)
    plan = resolve_request(act(roles=(0, 0, 1)), 5, h, state)
    assert plan.assignment == ((1, 0), (3, 0), (4, 1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solver_agrees_with_the_full_pool_with_a_grafted_team(data):
    n_atoms = data.draw(st.integers(2, 7), label="atoms")
    caps = [
        data.draw(st.frozensets(st.integers(0, 2), max_size=3), label=f"caps{a}")
        for a in range(n_atoms)
    ]
    holons = [atom(a, *caps[a]) for a in range(n_atoms)]
    split = data.draw(st.integers(1, n_atoms - 1), label="split")
    holons += [soc(n_atoms, range(split)), soc(n_atoms + 1, range(split, n_atoms)), soc(n_atoms + 2, [n_atoms, n_atoms + 1])]
    h = build(*holons)
    root = n_atoms + 2

    # a promoted team under the root offers some actors a second time there
    team = tuple(sorted(data.draw(st.frozensets(st.sampled_from(range(n_atoms)), max_size=n_atoms), label="team")))
    if len(team) >= 2 and any(caps[a] for a in team):
        h.graft(team, root)

    busy = data.draw(st.frozensets(st.sampled_from(range(n_atoms)), max_size=n_atoms - 1), label="busy")
    state = initial_state(h)
    for a in sorted(busy):
        if caps[a]:
            enroll(state, h, a, min(caps[a]), son_id=99)

    roles = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=4), label="roles")
    activity = act(roles=tuple(sorted(roles)))
    start = data.draw(st.sampled_from([n_atoms, n_atoms + 1]), label="start")

    got = resolve_request(activity, start, h, state)
    want = full_pool_resolve(activity, start, h, state)
    if want["kind"] == "plan":
        assert (got.missing, len(got.hops), got.resolved_soc, got.assignment) == (
            (),
            want["hop_count"],
            want["resolved_soc"],
            want["assignment"],
        )
    else:
        assert (got.assignment, len(got.hops), got.missing) == ((), want["hop_count"], want["missing"])


# -- the one-matching solver against brute force -----------------------------


@st.composite
def solver_cases(draw):
    """Slots, each role's best ``len(slots)`` actors, and the data on hand.

    Few actors crowd the slots, so the
    matching has to reroute along deep alternating paths, which the
    resolve-level tests above rarely reach.
    """
    n_roles = draw(st.integers(1, 3))
    slots = tuple(sorted(draw(st.integers(0, n_roles - 1)) for _ in range(draw(st.integers(1, 6)))))
    actors = range(draw(st.integers(1, 8)))
    pool = {
        role: [a for a in actors if draw(st.booleans())][: len(slots)]
        for role in sorted(set(slots))
    }
    needs = draw(st.frozensets(st.sampled_from("xy")))
    available = draw(st.frozensets(st.sampled_from("xy")))
    return slots, pool, needs, available


@settings(max_examples=400, deadline=None)
@given(solver_cases())
# slot 0 first takes actor 0, which the role-1 slot needs; taking it back
# must reroute slot 1, and a failed try must be undone
@example(((0, 0, 1), {0: [0, 1, 2], 1: [0]}, frozenset(), frozenset()))
# every slot fills with its first candidate no slot holds, skipping held
# ones, so nothing reroutes and the least-assignment walk changes nothing
@example(((0, 1), {0: [0, 1], 1: [0, 2]}, frozenset(), frozenset()))
# an empty role list, a slot whose only candidate is held and cannot be
# rerouted, and an absent data topic: missing is (1, 2, DATA_MISSING)
@example(((0, 1, 2), {0: [0], 1: [0], 2: []}, frozenset({"x"}), frozenset()))
def test_solver_agrees_with_brute_force_on_the_pool(case):
    slots, pool, needs, available = case
    activity = act(roles=slots, data=needs)
    assert _solve(activity, pool, set(available)) == brute_force_solve(activity, pool, set(available))
