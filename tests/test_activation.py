"""Latent reserve vs responding set: enrollment bookkeeping."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fso_sim.activation import (
    AlreadyActiveError,
    Binding,
    IncapableRoleError,
    NotActiveError,
    TooLargeError,
    check_partition,
    enroll,
    enumerate_activation_space,
    initial_state,
    release,
)
from fso_sim.holarchy import (
    HolarchySpec,
    Holon,
    HolonKind,
    UnknownHolonError,
    build_holarchy,
)

from oracles import count_activation_states


def atom(i, *caps):
    return Holon(id=i, kind=HolonKind.ATOMIC, capabilities=frozenset(caps))


def soc(i, members):
    members = tuple(members)
    return Holon(id=i, kind=HolonKind.COMPOSITE, members=members, representative=min(members))


def build(*holons, roles=frozenset({0, 1, 2})):
    return build_holarchy(HolarchySpec(roles=roles, holons=tuple(holons)))


@pytest.fixture
def trio():
    return build(atom(0, 0, 1), atom(1, 1), atom(2, 2), soc(3, [0, 1, 2]))


def test_initial_state_is_all_idle(trio):
    state = initial_state(trio)
    assert state.inactive == {0, 1, 2}
    assert state.active == {}


def test_enroll_and_release_move_actors(trio):
    state = initial_state(trio)
    enroll(state, trio, 0, 1, son_id=5)
    assert state.inactive == {1, 2}
    assert state.active == {0: Binding(role=1, son_id=5)}
    release(state, 0)
    assert state == initial_state(trio)


def test_enroll_rejects_double_enrollment(trio):
    state = initial_state(trio)
    enroll(state, trio, 0, 0, son_id=1)
    with pytest.raises(AlreadyActiveError):
        enroll(state, trio, 0, 1, son_id=2)
    assert state.active == {0: Binding(role=0, son_id=1)}


def test_enroll_rejects_incapable_role(trio):
    state = initial_state(trio)
    with pytest.raises(IncapableRoleError):
        enroll(state, trio, 1, 0, son_id=1)
    assert state == initial_state(trio)


def test_enroll_rejects_non_actors(trio):
    with pytest.raises(UnknownHolonError):
        enroll(initial_state(trio), trio, 3, 0, son_id=1)
    with pytest.raises(UnknownHolonError):
        enroll(initial_state(trio), trio, 42, 0, son_id=1)


def test_release_requires_enrollment(trio):
    state = initial_state(trio)
    with pytest.raises(NotActiveError):
        release(state, 0)
    assert state == initial_state(trio)


def test_check_partition_catches_strangers(trio):
    state = initial_state(trio)
    broken = state.__class__(inactive=state.inactive | {99}, active=state.active)
    with pytest.raises(Exception):
        check_partition(broken, trio)


def test_enumerate_counts_by_capability_product(trio):
    # actor 0 has two roles, actors 1 and 2 one each: 3 * 2 * 2
    assert enumerate_activation_space(trio) == 12
    assert count_activation_states(trio) == 12


def test_enumerate_rejects_huge_populations():
    atoms = [atom(i, 0) for i in range(21)]
    h = build(*atoms, soc(100, range(21)), roles=frozenset({0}))
    with pytest.raises(TooLargeError):
        enumerate_activation_space(h)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=20), st.data())
def test_partition_invariant_under_random_ops(ops, data):
    h = build(atom(0, 0, 1), atom(1, 1), atom(2, 0, 2), soc(3, [0, 1, 2]))
    state = initial_state(h)
    son = 0
    for actor, role in ops:
        if actor in state.active:
            release(state, actor)
        else:
            try:
                enroll(state, h, actor, role, son_id=son)
                son += 1
            except IncapableRoleError:
                pass
        check_partition(state, h)
        assert state.inactive | state.active.keys() == {0, 1, 2}
        assert not state.inactive & state.active.keys()
