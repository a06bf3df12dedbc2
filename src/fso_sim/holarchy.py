"""Fractal node structure: holons, service-oriented communities, registries.

A holarchy is a tree of holons. Atomic holons are actors with role
capabilities; composite holons are service-oriented communities (SoCs) with
an ordered member list and a distinguished representative that stands for
the whole community one level up. Each SoC of the scenario owns a
registry holding the service offers and published information visible at
that level. Offers aggregate upward: a composite member's representative
offers, in its SoC's registry, every role the member's own registry
offers. So a member's registry is filled before its SoC's:
:func:`register_initial_services`, the one writer of service entries,
goes leaves first. A promoted SoC keeps no registry, and its anchor's
registry gets no proxy entries for it: sources inject only at scenario
SoCs, and staffing reads role atoms, not entries.

The structural rules (a tree of nested communities under one composite
root) are stated once, in :func:`validate`, as :class:`Violation` data.
:func:`build_holarchy` raises the first of them that the holons it is given
break as a :class:`ViolationError` carrying it; a debug run audits them
after every tick.

A scenario's structure is checked once, when its
:class:`~fso_sim.engine.Scenario` is made: that calls :func:`build_holarchy`
and keeps the checked holon table, parent map and root. Each run then
builds its own holarchy from copies of those with the :class:`Holarchy`
constructor, which checks nothing, and only the run's single logical event
loop touches it. Registries are its everyday mutable surface. Its
structure changes in place, through
:meth:`Holarchy.graft` and :meth:`Holarchy.remove` alone, when evolution
promotes a recurring overlay into a permanent SoC or prunes one again (see
:mod:`fso_sim.evolution`); neither touches a registry.

A holarchy memoises two things its structure already knows. The actors
under each SoC, bucketed by role (:meth:`Holarchy.atoms_by_role`), fill
lazily. The member lists are a counted index: how many SoCs list each
sorted member list (:meth:`Holarchy.holds_members`). It is built with the
holarchy, and the one helper that adds, relists or deletes a SoC keeps it.
It counts because two SoCs can list the same members: an anchor that
loses its last promoted SoC lists its own members again, and a promoted
team may list them too. A grafted SoC's members are actors already under
its anchor, so neither edit changes the actor set of any other SoC and the
role-atom cache keeps every other entry.
A removed id forgets its role atoms, because :meth:`Holarchy.graft` gives
each new SoC the next free id, ``max(holons) + 1``, and so may reuse it for
a different team. Staffing reads the role atoms, not the registries: a
registry's service entries, unfolded, offer exactly its SoC's role atoms,
and they stay the record of offers that :func:`validate` audits. A graft
leaves that true, because a promoted team's actors are already under its
anchor.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, NamedTuple

HolonId = int
RoleId = int
LogicalTime = int


class HolarchyError(Exception):
    """A holon that does not exist or cannot do what was asked of it; the base of :class:`ViolationError`."""


class ViolationError(HolarchyError):
    """A holarchy breaks one of the structural rules of :func:`validate`."""

    def __init__(self, violation: Violation) -> None:
        super().__init__(violation.detail)
        self.violation = violation


class HolonKind(Enum):
    ATOMIC = "atomic"
    COMPOSITE = "composite"


class HolonOrigin(Enum):
    SCENARIO = "scenario"
    PERMANENTIFIED = "permanentified"


class Holon(NamedTuple):
    """A node that is both a whole and a part.

    Atomic holons carry capabilities and have no members. Composite holons
    (SoCs) carry an ordered member list and a representative drawn from it.
    A tuple, built by the loader with ``tuple.__new__`` as ``_make`` does,
    so setting up a scenario makes no Python-level call per holon to build
    it; an edit makes a new one with ``_replace``. It hashes and compares as
    the tuple of its six fields.
    """

    id: HolonId
    kind: HolonKind
    capabilities: frozenset[RoleId] = frozenset()
    members: tuple[HolonId, ...] = ()
    representative: HolonId | None = None
    origin: HolonOrigin = HolonOrigin.SCENARIO


class ServiceEntry(NamedTuple):
    """One service offer in a registry.

    ``via`` is the composite member whose subtree this entry punctualizes,
    the member a proxy unfolds to, or None for an offer registered directly
    by an atomic member. A registry keeps its entries sorted by (provider,
    role), read by the C-level key ``_ENTRY_ORDER``, so the sort makes no
    Python-level call per entry. A tuple, built with ``tuple.__new__`` as
    ``_make`` does, so registering an offer makes no Python-level call
    either; it hashes and compares as the tuple of its three fields.
    """

    provider: HolonId
    role: RoleId
    via: HolonId | None = None


# the canonical order of a registry's service entries
_ENTRY_ORDER = attrgetter("provider", "role")


class InformationItem(NamedTuple):
    """A published event: ``topic``, due at ``published_at`` from the source
    declared at ``source_index``, which injects it into the SoC ``source``.

    The one record of an arrival: :func:`fso_sim.environment.sample_arrivals`
    builds it when a run is set up, and the engine publishes it on its tick
    into the registry that keeps it. A tuple, so items order by (time,
    source index) with no sort key; two that tie on both are equal.
    """

    published_at: LogicalTime
    source_index: int
    source: HolonId
    topic: str


@dataclass
class Registry:
    """Per-SoC store of service offers and published information.

    Service entries are stored in (provider, role) order, which
    :func:`validate`'s ``RegistryOrder`` rule audits. Staffing does not read
    them: it reads :meth:`Holarchy.atoms_by_role`, the actors the entries offer
    once each ``via`` entry is unfolded to the role atoms of its member, so
    a proxy's provider (the member's representative) is never ranked. Only
    :func:`register_initial_services` writes the entries. ``info_entries``
    keeps, in publication order, the very items sampled at set-up, and
    ``topics`` is the set of their topics; :func:`fso_sim.canon.publish`
    keeps both, so staffing never rescans the information list.
    """

    service_entries: list[ServiceEntry] = field(default_factory=list, init=False)
    info_entries: list[InformationItem] = field(default_factory=list, init=False)
    topics: set[str] = field(default_factory=set, init=False, repr=False, compare=False)

    def topics_present(self) -> set[str]:
        return set(self.topics)


@dataclass(frozen=True)
class Violation:
    """One broken structural invariant, as data rather than as an exception."""

    code: str
    holon: HolonId
    detail: str

    def __str__(self) -> str:
        return f"{self.code}({self.holon}): {self.detail}"


# SoC -> role -> the actors under the SoC that can play the role, in id order
RoleAtoms = dict[HolonId, dict[RoleId, tuple[HolonId, ...]]]


class Holarchy:
    """A validated holon tree with a registry per SoC of its scenario.

    ``parent`` maps every non-root holon to its primary enclosing SoC. A
    promoted (permanentified) SoC references its members secondarily: those
    member edges do not contribute to the parent map, so the primary
    structure stays a tree while actors may belong to several communities.
    """

    def __init__(
        self,
        holons: dict[HolonId, Holon],
        parent: dict[HolonId, HolonId],
        root: HolonId,
        roles: frozenset[RoleId],
    ) -> None:
        """Hold the given tables as they are, with an empty registry per SoC.

        Nothing is checked here: :func:`build_holarchy` checks before it
        calls this, and a run passes copies of tables its scenario checked.
        """
        self.holons = holons
        self.parent = parent
        self.root = root
        self.roles = roles
        socs = [n for n in holons.values() if n.kind is HolonKind.COMPOSITE]
        self.registries = {n.id: Registry() for n in socs}
        self._role_atoms: RoleAtoms = {}
        # sorted member list -> how many SoCs list exactly it; only _set_soc
        # writes it, and counts its calls in ``edits``
        self._member_lists = Counter([tuple(sorted(n.members)) for n in socs])
        self.edits = 0

    # -- basic queries -------------------------------------------------

    def holon(self, h: HolonId) -> Holon:
        try:
            return self.holons[h]
        except KeyError:
            raise HolarchyError(f"holon {h} does not exist") from None

    def atoms(self) -> tuple[HolonId, ...]:
        return tuple(sorted(i for i, n in self.holons.items() if n.kind is HolonKind.ATOMIC))

    def composites(self) -> tuple[HolonId, ...]:
        return tuple(sorted(i for i, n in self.holons.items() if n.kind is HolonKind.COMPOSITE))

    def chain_to_root(self, start: HolonId) -> tuple[HolonId, ...]:
        """start, parent(start), ..., root along primary edges."""
        self.holon(start)
        chain = [start]
        while chain[-1] in self.parent:
            chain.append(self.parent[chain[-1]])
        return tuple(chain)

    def subtree_atoms(self, h: HolonId) -> frozenset[HolonId]:
        """All atomic actors reachable through member edges from ``h``."""
        node = self.holon(h)
        if node.kind is HolonKind.ATOMIC:
            return frozenset({h})
        found: set[HolonId] = set()
        seen: set[HolonId] = set()
        stack = [h]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            n = self.holon(current)
            if n.kind is HolonKind.ATOMIC:
                found.add(current)
            else:
                stack.extend(n.members)
        return frozenset(found)

    def atoms_by_role(self, soc: HolonId) -> dict[RoleId, tuple[HolonId, ...]]:
        """Per role, the actors under ``soc`` that can play it, in id order.

        A role no actor under ``soc`` plays has no key. The first call for a
        SoC walks its subtree once and buckets every actor by capability;
        later calls return the same dict, which callers only read.
        """
        by_role = self._role_atoms.get(soc)
        if by_role is None:
            buckets: dict[RoleId, list[HolonId]] = {}
            for a in sorted(self.subtree_atoms(soc)):
                for r in self.holons[a].capabilities:
                    buckets.setdefault(r, []).append(a)
            by_role = {r: tuple(actors) for r, actors in buckets.items()}
            self._role_atoms[soc] = by_role
        return by_role

    def holds_members(self, members: tuple[HolonId, ...]) -> bool:
        """Whether some SoC's member list, sorted, is exactly ``members``."""
        # a count that falls to zero is deleted, so a listed key is held
        return members in self._member_lists

    # -- in-place evolution ----------------------------------------------

    def graft(self, members: tuple[HolonId, ...], anchor: HolonId) -> HolonId:
        """Promote ``members`` to a new SoC under ``anchor``; returns its id.

        The SoC takes the next free id, perhaps one :meth:`remove` freed,
        and its lowest member as representative. Only the holon table, the
        parent map and the member lists change: the SoC gets no registry,
        and its anchor's registry no proxy entries.
        """
        soc = max(self.holons) + 1
        promoted = Holon(
            soc, HolonKind.COMPOSITE, members=members, representative=min(members), origin=HolonOrigin.PERMANENTIFIED
        )
        self._set_soc(soc, promoted)
        self.parent[soc] = anchor
        old = self.holons[anchor]
        self._set_soc(anchor, old._replace(members=old.members + (soc,)))
        return soc

    def remove(self, soc: HolonId) -> HolonId:
        """Undo :meth:`graft` for ``soc``; returns the SoC it hung under."""
        anchor = self.parent.pop(soc)
        self._set_soc(soc, None)
        # the next promotion may reuse the id for a different team
        self._role_atoms.pop(soc, None)
        old = self.holons[anchor]
        self._set_soc(anchor, old._replace(members=tuple(m for m in old.members if m != soc)))
        return anchor

    def _set_soc(self, soc: HolonId, node: Holon | None) -> None:
        """Add, relist or, given None, delete the SoC ``soc``, and count its member list."""
        self.edits += 1
        old = self.holons.get(soc)
        if old is not None:
            key = tuple(sorted(old.members))
            self._member_lists[key] -= 1
            if not self._member_lists[key]:
                del self._member_lists[key]
        if node is None:
            del self.holons[soc]
        else:
            self.holons[soc] = node
            self._member_lists[tuple(sorted(node.members))] += 1


def build_holarchy(holons: Iterable[Holon], roles: frozenset[RoleId]) -> Holarchy:
    """Materialize a holarchy of ``holons`` over the role table ``roles``, or raise its first fault.

    The holons are used as given. Every composite receives an empty
    registry; initial service offers are registered separately with
    :func:`register_initial_services`. The first violation of the structural
    rules of :func:`validate`, or a ``DuplicateId``, which a holarchy keyed by
    id cannot hold, is raised as a :class:`ViolationError`, before anything
    is built. This is where a scenario's structure is checked, once, when
    the scenario is made.
    """
    by_id: dict[HolonId, Holon] = {}
    parent: dict[HolonId, HolonId] = {}
    for node in holons:
        if node.id in by_id:
            raise ViolationError(Violation("DuplicateId", node.id, f"holon id {node.id} declared twice"))
        if node.kind is HolonKind.COMPOSITE:
            parent.update(dict.fromkeys(node.members, node.id))
        by_id[node.id] = node
    # -1 when every holon is listed somewhere, which the rules reject
    root = next((i for i in by_id if i not in parent), -1)
    for v in _structure_violations(by_id, parent, root, roles):
        raise ViolationError(v)
    return Holarchy(by_id, parent, root, roles)


def register_initial_services(h: Holarchy) -> None:
    """Fill every SoC registry with its members' service offers.

    Direct atomic members register one offer per capability. Composite
    members are punctualized: their representative appears as a proxy
    provider for every role the member's own registry offers. Registries
    are filled leaves first, in reverse breadth-first order from the root,
    so each member's registry is complete before its SoC's reads it. Each
    registry is given its entries once, sorted, and nothing writes them
    again.
    """
    holons, registries = h.holons, h.registries
    new = tuple.__new__
    order = [h.root]
    for soc in order:
        order += [m for m in holons[soc].members if holons[m].kind is HolonKind.COMPOSITE]
    for soc in reversed(order):
        entries: list[ServiceEntry] = []
        for m in holons[soc].members:
            _, kind, capabilities, _, rep, _ = holons[m]
            if kind is HolonKind.ATOMIC:
                entries += [new(ServiceEntry, (m, role, None)) for role in capabilities]
            else:
                entries += [new(ServiceEntry, (rep, role, m)) for role in {e.role for e in registries[m].service_entries}]
        entries.sort(key=_ENTRY_ORDER)
        registries[soc].service_entries = entries


def validate(h: Holarchy) -> list[Violation]:
    """Check every invariant of a holarchy; violations come back as data.

    This is the one statement of the holarchy's structural rules:
    :func:`build_holarchy` raises the first of them, and a debug run audits
    all of them, with the registry rules, after every tick. An empty list
    means the holarchy is sound.
    """
    return [*_structure_violations(h.holons, h.parent, h.root, h.roles), *_registry_violations(h)]


def _structure_violations(
    holons: dict[HolonId, Holon], parent: dict[HolonId, HolonId], root: HolonId, roles: frozenset[RoleId]
) -> Iterator[Violation]:
    """The structural rules broken by a holon table with its recorded parent map and root."""
    # primary parents, recomputed from raw member lists: only
    # scenario-original SoCs contribute parental edges
    parents: dict[HolonId, HolonId] = {}
    # unpacked at once: each field read of a tuple subclass costs a descriptor call
    for i, (id_, kind, capabilities, members, representative, origin) in holons.items():
        if i < 0:
            yield Violation("NegativeId", i, f"holon id {i} is negative")
        if id_ != i:
            yield Violation("IdMismatch", i, f"keyed {i} but carries id {id_}")
        if kind is HolonKind.ATOMIC:
            if members:
                yield Violation("AtomicWithMembers", i, f"atomic holon {i} lists members")
            if representative is not None:
                yield Violation("AtomicWithRepresentative", i, f"atomic holon {i} names a representative")
            for role in capabilities:
                if role not in roles:
                    yield Violation("UnknownRole", i, f"holon {i} claims undeclared role {role}")
            continue
        if capabilities:
            yield Violation("CapabilityOnComposite", i, f"composite holon {i} lists capabilities")
        if not members:
            yield Violation("EmptyComposite", i, f"composite holon {i} has no members")
        for m in members:
            member = holons.get(m)
            if member is None:
                yield Violation("UnknownMember", i, f"SoC {i} lists unknown member {m}")
            elif origin is HolonOrigin.PERMANENTIFIED:
                # promoted SoCs are leaf composites holding existing actors
                if member.kind is not HolonKind.ATOMIC:
                    yield Violation("NonAtomicOverlayMember", i, f"member {m} is not an existing actor")
            elif m in parents:
                yield Violation("MultipleParents", m, f"holon {m} is a member of both {parents[m]} and {i}")
            else:
                parents[m] = i
        if representative not in members:
            yield Violation("RepresentativeNotMember", i, f"representative {representative} is not a member of SoC {i}")

    roots = [i for i in holons if i not in parents]
    if len(roots) != 1:
        yield Violation("RootCount", root, f"membership must have exactly one root, found {sorted(roots)}")
    else:
        found = roots[0]
        if found != root:
            yield Violation("RootMismatch", root, f"recorded root differs from structural root {found}")
        if holons[found].kind is HolonKind.ATOMIC:
            yield Violation("AtomicRoot", found, f"root holon {found} must be a composite SoC")
        # with single parents, every unreachable holon sits on a cycle or
        # under one; a holon met twice on the walk has two parents already
        seen: set[HolonId] = set()
        stack = [found]
        while stack:
            current = stack.pop()
            node = holons.get(current)
            if current not in seen and node is not None:
                seen.add(current)
                if node.kind is HolonKind.COMPOSITE and node.origin is HolonOrigin.SCENARIO:
                    stack += node.members
        missing = holons.keys() - seen
        if missing:
            yield Violation("Unreachable", found, f"holons {sorted(missing)} are not reachable from root {found}")

    if parent != parents:
        for child in sorted(parent.keys() | parents.keys()):
            recorded, listed = parent.get(child), parents.get(child)
            if recorded != listed:
                yield Violation("ParentMapInconsistent", child, f"recorded parent {recorded}, member lists say {listed}")


def _capable_socs(h: Holarchy) -> set[HolonId]:
    """The SoCs above an actor with a capability, found walking the parent map up from the actors.

    A promoted SoC is no actor's parent, so it is never found.
    """
    parent = h.parent
    found: set[HolonId] = set()
    for i, node in h.holons.items():
        if node.kind is HolonKind.ATOMIC and node.capabilities:
            # an ancestor already found has its own ancestors found too
            s = parent.get(i)
            while s is not None and s not in found:
                found.add(s)
                s = parent.get(s)
    return found


def _registry_violations(h: Holarchy) -> list[Violation]:
    out: list[Violation] = []
    capable = _capable_socs(h)
    for soc, reg in h.registries.items():
        node = h.holons.get(soc)
        if node is None or node.kind is not HolonKind.COMPOSITE:
            out.append(Violation("RegistryOwnerInvalid", soc, "registry owner is not a composite holon"))
            continue
        members = set(node.members)
        rep_of_member = {
            h.holons[m].representative: m
            for m in node.members
            if m in h.holons and h.holons[m].kind is HolonKind.COMPOSITE
        }
        for entry in reg.service_entries:
            if entry.provider not in members and entry.provider not in rep_of_member:
                out.append(
                    Violation(
                        "ProviderNotMember",
                        soc,
                        f"provider {entry.provider} is neither a direct member nor a member's representative",
                    )
                )
        keys = list(map(_ENTRY_ORDER, reg.service_entries))
        if keys != sorted(keys):
            out.append(Violation("RegistryOrder", soc, "service entries out of canonical order"))
        times = [item.published_at for item in reg.info_entries]
        if any(a > b for a, b in zip(times, times[1:])):
            out.append(Violation("InfoOrder", soc, "info entries not monotone in published_at"))

        # punctualization: once anything is registered, every composite
        # member that is a capable actor's ancestor must appear through its
        # representative; a promoted member is no one's ancestor
        if reg.service_entries:
            for m in node.members:
                if m in capable and not any(e.via == m for e in reg.service_entries):
                    out.append(
                        Violation("RepresentativeNotRegistered", soc, f"composite member {m} has no proxy entries")
                    )
    return out
