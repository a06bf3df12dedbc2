"""Activation bookkeeping: which actors are idle, which are busy in overlays.

At any instant the actors split into two camps: the latent reserve L(t) of
idle actors available for enrollment, and the responding set R(t) of actors
currently playing a role inside some overlay community. Enrollment moves an
actor from L to R bound to one (role, overlay) pair; release moves it back.
The two sets partition the actor population at all times.

The engine owns one ActivationState for the whole run: enroll and release
check their preconditions first and then update it in place, so a call that
raises leaves the state untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .holarchy import Holarchy, HolarchyError, Holon, HolonId, HolonKind, RoleId


class ActivationError(Exception):
    pass


class Binding(NamedTuple):
    """What an active actor is doing: which role, inside which overlay.

    Built once per enrollment and then only read. A tuple, built with
    ``tuple.__new__`` as ``_make`` does, so building it makes no
    Python-level call and reading a field is C-level; like every tuple it
    carries no per-instance dict.
    """

    role: RoleId
    son_id: int


@dataclass
class ActivationState:
    """The L/R split: idle actors, and each busy actor's binding."""

    inactive: set[HolonId]
    active: dict[HolonId, Binding]


def initial_state(h: Holarchy) -> ActivationState:
    """All actors idle: L is the full actor population, R is empty.

    The population is read from the holon table: the structural rules put
    every holon under the root, so that is every actor the root reaches.
    """
    return ActivationState(inactive={i for i, n in h.holons.items() if n.kind is HolonKind.ATOMIC}, active={})


def enroll(
    state: ActivationState,
    h: Holarchy,
    a: HolonId,
    role: RoleId,
    son_id: int,
) -> None:
    """Move actor ``a`` from the latent reserve into overlay ``son_id``.

    Raises ActivationError when a is already enrolled somewhere or cannot
    play ``role``, and HolarchyError when a is not an actor of this holarchy.
    """
    node = h.holons.get(a)
    if node is None:
        raise HolarchyError(f"holon {a} does not exist")
    if node.kind is not HolonKind.ATOMIC:
        raise HolarchyError(f"holon {a} is composite; only actors enroll")
    if a in state.active:
        raise ActivationError(f"actor {a} is already enrolled")
    if a not in state.inactive:
        raise HolarchyError(f"actor {a} is not part of this activation state")
    if role not in node.capabilities:
        raise ActivationError(f"actor {a} cannot play role {role}")
    state.inactive.remove(a)
    state.active[a] = tuple.__new__(Binding, (role, son_id))


def release(state: ActivationState, a: HolonId) -> None:
    """Return actor ``a`` from its overlay to the latent reserve."""
    if a not in state.active:
        raise ActivationError(f"actor {a} is not enrolled anywhere")
    del state.active[a]
    state.inactive.add(a)


def check_partition(state: ActivationState, h: Holarchy) -> None:
    """Assert that L and R partition the actor population exactly.

    Raises ActivationError when the sets overlap, miss an actor, or contain
    a stranger; used by the engine's debug mode after every step.
    """
    latent, responding = state.inactive, state.active.keys()
    population = h.subtree_atoms(h.root)
    overlap = latent & responding
    if overlap:
        raise ActivationError(f"actors {sorted(overlap)} are both latent and responding")
    union = latent | responding
    if union != population:
        missing = sorted(population - union)
        strangers = sorted(union - population)
        raise ActivationError(f"partition broken: missing={missing} strangers={strangers}")


def enumerate_activation_space(holons: Iterable[Holon]) -> int:
    """Count all role-assignment states of the actors among ``holons``.

    Each actor is either idle or plays one of its capable roles, and actors
    choose independently, so the count is the product of (1 + |capabilities|)
    over all actors, exact for any number of actors.
    """
    total = 1
    for node in holons:
        if node.kind is HolonKind.ATOMIC:
            total *= 1 + len(node.capabilities)
    return total
