"""Fractal node structure: holons, service-oriented communities, registries.

A holarchy is a tree of holons. Atomic holons are actors with role
capabilities; composite holons are service-oriented communities (SoCs) with
an ordered member list and a distinguished representative that stands for
the whole community one level up. Each SoC owns a registry holding the
service offers and published information visible at that level. Offers
aggregate upward: a composite member's representative offers, in its SoC's
registry, every role the member's own registry offers. So a member's
registry is filled before its SoC's: :func:`register_initial_services`
goes leaves first, and :meth:`Holarchy.graft` fills a promoted SoC's
registry before it writes the anchor's proxies.

The structural rules (a tree of nested communities under one composite
root) are stated once, in :func:`validate`, as :class:`Violation` data.
:func:`build_holarchy` raises the first of them that the holons it is given
break as a :class:`ViolationError` carrying it; a debug run audits them
after every tick.

A run has exactly one holarchy, built by :func:`build_holarchy` and only
ever touched by the engine's single logical event loop. Registries are its
everyday mutable surface. Its structure changes in place, through
:meth:`Holarchy.graft` and :meth:`Holarchy.remove` alone, when evolution
promotes a recurring overlay into a permanent SoC or prunes one again (see
:mod:`fso_sim.evolution`).

A holarchy memoises two things its structure already knows. The actors
under each SoC, bucketed by role (:meth:`Holarchy.role_atoms`), fill
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
a different team. Each registry keeps its own ranked offer views
(:meth:`Holarchy.ranked_offers`), and its only writers,
:meth:`Registry.offer` and :meth:`Registry.retract`, drop them. A promoted
SoC starts with a fresh registry and a removed one takes its views with it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Iterable, Iterator

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


@dataclass(frozen=True)
class Holon:
    """A node that is both a whole and a part.

    Atomic holons carry capabilities and have no members. Composite holons
    (SoCs) carry an ordered member list and a representative drawn from it.
    """

    id: HolonId
    kind: HolonKind
    capabilities: frozenset[RoleId] = frozenset()
    members: tuple[HolonId, ...] = ()
    representative: HolonId | None = None
    origin: HolonOrigin = HolonOrigin.SCENARIO

    @property
    def is_atomic(self) -> bool:
        return self.kind is HolonKind.ATOMIC

    @property
    def is_composite(self) -> bool:
        return self.kind is HolonKind.COMPOSITE


@dataclass(frozen=True)
class ServiceEntry:
    """One service offer in a registry.

    ``via`` is the composite member whose subtree this entry punctualizes,
    or None for an offer registered directly by an atomic member. It exists
    so that evolution can retract exactly the entries it added.
    """

    provider: HolonId
    role: RoleId
    via: HolonId | None = None

    def sort_key(self) -> tuple[int, int]:
        return (self.provider, self.role)


@dataclass(frozen=True, slots=True)
class InformationItem:
    """A published piece of information, matched against activity guards."""

    topic: str
    source: HolonId
    published_at: LogicalTime


@dataclass
class Registry:
    """Per-SoC store of service offers and published information.

    Entries are stored in (provider, role) order, which :func:`validate`'s
    ``RegistryOrder`` rule audits. Staffing does not read that order: it
    ranks actors by id through :meth:`Holarchy.ranked_offers`, which unfolds
    each ``via`` entry to the role atoms of its member, so a proxy's
    provider (the member's representative) is never ranked. Only :meth:`offer`
    and :meth:`retract` write the entries, and both drop the ranked ``views``
    :meth:`Holarchy.ranked_offers` keeps here. ``topics`` is the set of
    topics among ``info_entries``; :func:`fso_sim.canon.publish` keeps it
    up to date, so staffing never rescans the information list.
    """

    service_entries: list[ServiceEntry] = field(default_factory=list, init=False)
    info_entries: list[InformationItem] = field(default_factory=list, init=False)
    topics: set[str] = field(default_factory=set, init=False, repr=False, compare=False)
    # role -> every actor offered for it, ascending
    views: dict[RoleId, tuple[HolonId, ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def topics_present(self) -> set[str]:
        return set(self.topics)

    def offer(self, entries: Iterable[ServiceEntry]) -> None:
        """Merge ``entries`` into the service entries, in canonical order."""
        self.service_entries.extend(entries)
        self.service_entries.sort(key=ServiceEntry.sort_key)
        self.views.clear()

    def retract(self, via: HolonId) -> None:
        """Drop every entry registered via the composite member ``via``."""
        self.service_entries = [e for e in self.service_entries if e.via != via]
        self.views.clear()


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
    """A validated holon tree with its per-SoC registries.

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
        registries: dict[HolonId, Registry],
    ) -> None:
        self.holons = holons
        self.parent = parent
        self.root = root
        self.roles = roles
        self.registries = registries
        self._role_atoms: RoleAtoms = {}
        # sorted member list -> how many SoCs list exactly it; only _set_soc writes it
        self._member_lists = Counter(tuple(sorted(n.members)) for n in holons.values() if n.is_composite)

    # -- basic queries -------------------------------------------------

    def holon(self, h: HolonId) -> Holon:
        try:
            return self.holons[h]
        except KeyError:
            raise HolarchyError(f"holon {h} does not exist") from None

    def atoms(self) -> tuple[HolonId, ...]:
        return tuple(sorted(i for i, n in self.holons.items() if n.is_atomic))

    def composites(self) -> tuple[HolonId, ...]:
        return tuple(sorted(i for i, n in self.holons.items() if n.is_composite))

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
        if node.is_atomic:
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
            if n.is_atomic:
                found.add(current)
            else:
                stack.extend(n.members)
        return frozenset(found)

    def role_atoms(self, soc: HolonId, role: RoleId) -> tuple[HolonId, ...]:
        """The actors under ``soc`` that can play ``role``, in id order.

        The first call for a SoC walks its subtree once and buckets every
        actor by capability; later calls read the bucket.
        """
        by_role = self._role_atoms.get(soc)
        if by_role is None:
            buckets: dict[RoleId, list[HolonId]] = {}
            for a in sorted(self.subtree_atoms(soc)):
                for r in self.holons[a].capabilities:
                    buckets.setdefault(r, []).append(a)
            by_role = {r: tuple(actors) for r, actors in buckets.items()}
            self._role_atoms[soc] = by_role
        return by_role.get(role, ())

    def ranked_offers(self, soc: HolonId, role: RoleId) -> tuple[HolonId, ...]:
        """Every actor ``soc``'s registry offers for ``role``, once each, in id order.

        A direct entry counts when its provider is an existing actor holding
        the role; a punctualized entry stands for the role atoms of the
        member it was registered via. The first call for a SoC and role
        reads the registry once, and the view lives in the registry until
        its next write.
        """
        reg = self.registries[soc]
        try:
            return reg.views[role]
        except KeyError:
            pass
        actors: set[HolonId] = set()
        for entry in reg.service_entries:
            if entry.role != role:
                continue
            if entry.via is None:
                provider = self.holons.get(entry.provider)
                if provider is not None and provider.is_atomic and role in provider.capabilities:
                    actors.add(entry.provider)
            else:
                actors.update(self.role_atoms(entry.via, role))
        view = reg.views[role] = tuple(sorted(actors))
        return view

    def holds_members(self, members: tuple[HolonId, ...]) -> bool:
        """Whether some SoC's member list, sorted, is exactly ``members``."""
        return self._member_lists[members] > 0

    # -- in-place evolution ----------------------------------------------

    def graft(self, members: tuple[HolonId, ...], anchor: HolonId) -> HolonId:
        """Promote ``members`` to a new SoC under ``anchor``; returns its id.

        The SoC takes the next free id, perhaps one :meth:`remove` freed,
        and its lowest member as representative. Its registry gets the
        members' offers, and the anchor's its proxies.
        """
        soc = max(self.holons) + 1
        promoted = Holon(
            soc, HolonKind.COMPOSITE, members=members, representative=min(members), origin=HolonOrigin.PERMANENTIFIED
        )
        self._set_soc(soc, promoted)
        self.parent[soc] = anchor
        self.registries[soc] = Registry()
        self.registries[soc].offer(e for m in members for e in self._offers(m))
        old = self.holons[anchor]
        self._set_soc(anchor, replace(old, members=old.members + (soc,)))
        self.registries[anchor].offer(self._offers(soc))
        return soc

    def remove(self, soc: HolonId) -> HolonId:
        """Undo :meth:`graft` for ``soc``; returns the SoC it hung under."""
        anchor = self.parent.pop(soc)
        self._set_soc(soc, None)
        del self.registries[soc]
        # the next promotion may reuse the id for a different team
        self._role_atoms.pop(soc, None)
        old = self.holons[anchor]
        self._set_soc(anchor, replace(old, members=tuple(m for m in old.members if m != soc)))
        self.registries[anchor].retract(soc)
        return anchor

    def _set_soc(self, soc: HolonId, node: Holon | None) -> None:
        """Add, relist or, given None, delete the SoC ``soc``, and count its member list."""
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

    def _offers(self, m: HolonId) -> Iterator[ServiceEntry]:
        """The entries member ``m`` adds to its SoC's registry.

        A composite ``m`` proxies the roles of its own, already filled, registry.
        """
        member = self.holons[m]
        if member.is_atomic:
            for role in member.capabilities:
                yield ServiceEntry(m, role)
        else:
            rep = member.representative
            assert rep is not None
            for role in {e.role for e in self.registries[m].service_entries}:
                yield ServiceEntry(rep, role, via=m)


def build_holarchy(holons: Iterable[Holon], roles: frozenset[RoleId]) -> Holarchy:
    """Materialize a holarchy of ``holons`` over the role table ``roles``, or raise its first fault.

    The holons are used as given. Every composite receives an empty
    registry; initial service offers are registered separately with
    :func:`register_initial_services`. The first violation of the structural
    rules of :func:`validate`, or a ``DuplicateId``, which a holarchy keyed by
    id cannot hold, is raised as a :class:`ViolationError`.
    """
    by_id: dict[HolonId, Holon] = {}
    parent: dict[HolonId, HolonId] = {}
    registries: dict[HolonId, Registry] = {}
    for node in holons:
        if node.id in by_id:
            raise ViolationError(Violation("DuplicateId", node.id, f"holon id {node.id} declared twice"))
        if node.is_composite:
            parent.update(dict.fromkeys(node.members, node.id))
            registries[node.id] = Registry()
        by_id[node.id] = node
    # -1 when every holon is listed somewhere, which the rules reject
    root = next((i for i in by_id if i not in parent), -1)
    h = Holarchy(by_id, parent, root, roles, registries)
    # a fresh holarchy's registries are empty, so only the structure can fail
    for v in _structure_violations(h):
        raise ViolationError(v)
    return h


def register_initial_services(h: Holarchy) -> None:
    """Fill every SoC registry with its members' service offers.

    Direct atomic members register one offer per capability. Composite
    members are punctualized: their representative appears as a proxy
    provider for every role the member's own registry offers. Registries
    are filled leaves first, in reverse breadth-first order from the root,
    so each member's registry is complete before its SoC's reads it.
    """
    order = [h.root]
    for soc in order:
        order += [m for m in h.holons[soc].members if h.holons[m].is_composite]
    for soc in reversed(order):
        h.registries[soc].offer(e for m in h.holons[soc].members for e in h._offers(m))


def validate(h: Holarchy) -> list[Violation]:
    """Check every invariant of a holarchy; violations come back as data.

    This is the one statement of the holarchy's structural rules:
    :func:`build_holarchy` raises the first of them, and a debug run audits
    all of them, with the registry rules, after every tick. An empty list
    means the holarchy is sound.
    """
    return [*_structure_violations(h), *_registry_violations(h)]


def _structure_violations(h: Holarchy) -> Iterator[Violation]:
    # primary parents, recomputed from raw member lists: only
    # scenario-original SoCs contribute parental edges
    parents: dict[HolonId, HolonId] = {}
    for i, node in h.holons.items():
        if i < 0:
            yield Violation("NegativeId", i, f"holon id {i} is negative")
        if node.id != i:
            yield Violation("IdMismatch", i, f"keyed {i} but carries id {node.id}")
        if node.is_atomic:
            if node.members:
                yield Violation("AtomicWithMembers", i, f"atomic holon {i} lists members")
            if node.representative is not None:
                yield Violation("AtomicWithRepresentative", i, f"atomic holon {i} names a representative")
            for role in node.capabilities:
                if role not in h.roles:
                    yield Violation("UnknownRole", i, f"holon {i} claims undeclared role {role}")
            continue
        if node.capabilities:
            yield Violation("CapabilityOnComposite", i, f"composite holon {i} lists capabilities")
        if not node.members:
            yield Violation("EmptyComposite", i, f"composite holon {i} has no members")
        for m in node.members:
            member = h.holons.get(m)
            if member is None:
                yield Violation("UnknownMember", i, f"SoC {i} lists unknown member {m}")
            elif node.origin is HolonOrigin.PERMANENTIFIED:
                # promoted SoCs are leaf composites holding existing actors
                if not member.is_atomic:
                    yield Violation("NonAtomicOverlayMember", i, f"member {m} is not an existing actor")
            elif m in parents:
                yield Violation("MultipleParents", m, f"holon {m} is a member of both {parents[m]} and {i}")
            else:
                parents[m] = i
        if node.representative not in node.members:
            yield Violation(
                "RepresentativeNotMember", i, f"representative {node.representative} is not a member of SoC {i}"
            )

    roots = [i for i in h.holons if i not in parents]
    if len(roots) != 1:
        yield Violation("RootCount", h.root, f"membership must have exactly one root, found {sorted(roots)}")
    else:
        root = roots[0]
        if root != h.root:
            yield Violation("RootMismatch", h.root, f"recorded root differs from structural root {root}")
        if h.holons[root].is_atomic:
            yield Violation("AtomicRoot", root, f"root holon {root} must be a composite SoC")
        # with single parents, every unreachable holon sits on a cycle or
        # under one; a holon met twice on the walk has two parents already
        seen: set[HolonId] = set()
        stack = [root]
        while stack:
            current = stack.pop()
            node = h.holons.get(current)
            if current not in seen and node is not None:
                seen.add(current)
                if node.is_composite and node.origin is HolonOrigin.SCENARIO:
                    stack += node.members
        missing = h.holons.keys() - seen
        if missing:
            yield Violation("Unreachable", root, f"holons {sorted(missing)} are not reachable from root {root}")

    if h.parent != parents:
        for child in sorted(h.parent.keys() | parents.keys()):
            recorded, listed = h.parent.get(child), parents.get(child)
            if recorded != listed:
                yield Violation("ParentMapInconsistent", child, f"recorded parent {recorded}, member lists say {listed}")


def _capable_socs(h: Holarchy) -> set[HolonId]:
    """The SoCs above an actor with a capability, found walking member edges up from the actors."""
    containers: dict[HolonId, list[HolonId]] = {}
    for i, node in h.holons.items():
        for m in node.members if node.is_composite else ():
            containers.setdefault(m, []).append(i)
    found: set[HolonId] = set()
    stack = [i for i, node in h.holons.items() if node.is_atomic and node.capabilities]
    while stack:
        for c in containers.get(stack.pop(), ()):
            if c not in found:
                found.add(c)
                stack.append(c)
    return found


def _registry_violations(h: Holarchy) -> list[Violation]:
    out: list[Violation] = []
    capable = _capable_socs(h)
    for soc, reg in h.registries.items():
        node = h.holons.get(soc)
        if node is None or not node.is_composite:
            out.append(Violation("RegistryOwnerInvalid", soc, "registry owner is not a composite holon"))
            continue
        members = set(node.members)
        rep_of_member = {
            h.holons[m].representative: m
            for m in node.members
            if m in h.holons and h.holons[m].is_composite
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
        keys = [e.sort_key() for e in reg.service_entries]
        if keys != sorted(keys):
            out.append(Violation("RegistryOrder", soc, "service entries out of canonical order"))
        times = [item.published_at for item in reg.info_entries]
        if any(a > b for a, b in zip(times, times[1:])):
            out.append(Violation("InfoOrder", soc, "info entries not monotone in published_at"))

        # punctualization: once anything is registered, every composite
        # member with a capable actor under it must appear through its
        # representative
        if reg.service_entries:
            for m in node.members:
                if m in capable and not any(e.via == m for e in reg.service_entries):
                    out.append(
                        Violation("RepresentativeNotRegistered", soc, f"composite member {m} has no proxy entries")
                    )
    return out
