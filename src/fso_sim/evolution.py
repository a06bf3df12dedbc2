"""Learning from overlays: strengths, permanentification, pruning.

Every dissolved overlay community leaves a record keyed by its signature
(the activity plus the exact set of participants). Signatures that keep
succeeding get promoted: the recurring overlay becomes a permanent SoC
grafted under the lowest community that contains all its members.
Promotion does not yet let a later request be answered without climbing:
that ancestor already sees the same actors, and the promoted SoC's registry
entries rank after the ones registered at t=0, so no staffing decision
changes. Promoted SoCs that then keep failing are pruned again, restoring
the earlier shape.

Promotion and pruning produce new Holarchy values and leave the input
untouched; the engine swaps its working holarchy for the returned one, which
inherits the input's role-atom cache (see :mod:`fso_sim.holarchy`).

The ledger keeps the signatures that have reached the promotion threshold
but are not promoted yet in ``ready``, so a tick with nothing due costs
nothing: :func:`maybe_permanentify` returns at once while ``ready`` is
empty. A signature whose member set some SoC already holds stays in
``ready`` and is promoted if that SoC is pruned later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .canon import Son
from .holarchy import (
    Holarchy,
    Holon,
    HolonId,
    HolonKind,
    HolonOrigin,
    LogicalTime,
    Registry,
    ServiceEntry,
)


class EvolutionError(Exception):
    pass


@dataclass(frozen=True)
class FailureWindow:
    """Injected fault: overlays of ``activity`` dissolving in [start, stop) fail."""

    activity: int
    start: LogicalTime
    stop: LogicalTime

    def applies(self, activity: int, t: LogicalTime) -> bool:
        return activity == self.activity and self.start <= t < self.stop


@dataclass(frozen=True)
class EvolutionPolicy:
    permanentify_threshold: int
    prune_failure_threshold: int
    prune_window: int
    strength_increment: float = 1.0
    failure_injections: tuple[FailureWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.permanentify_threshold < 1:
            raise ValueError("permanentify_threshold must be at least 1")
        if self.prune_failure_threshold < 1:
            raise ValueError("prune_failure_threshold must be at least 1")
        if self.prune_window < 1:
            raise ValueError("prune_window must be at least 1")
        if self.strength_increment < 0:
            raise ValueError("strength_increment must not be negative")

    def outcome_of(self, activity: int, t: LogicalTime) -> "Outcome":
        for window in self.failure_injections:
            if window.applies(activity, t):
                return Outcome.FAILURE
        return Outcome.SUCCESS


class Outcome(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


@dataclass(frozen=True)
class SonSignature:
    """What recurs: the activity and exactly which actors answered it."""

    activity: int
    members: tuple[HolonId, ...]

    @staticmethod
    def of(son: Son) -> "SonSignature":
        return SonSignature(son.activity, tuple(sorted(a for a, _ in son.members)))


@dataclass
class SignatureRecord:
    successes: int = 0
    failures: int = 0
    failure_times: list[LogicalTime] = field(default_factory=list)


@dataclass
class HolonRecord:
    completed: int = 0
    failed: int = 0


@dataclass
class ExperienceLedger:
    """Accumulated memory of overlay outcomes and actor collaboration."""

    son_outcomes: dict[SonSignature, SignatureRecord] = field(default_factory=dict)
    holon_perf: dict[HolonId, HolonRecord] = field(default_factory=dict)
    strengths: dict[tuple[HolonId, HolonId], float] = field(default_factory=dict)
    permanentified: set[SonSignature] = field(default_factory=set)
    created_socs: dict[HolonId, SonSignature] = field(default_factory=dict)
    ready: set[SonSignature] = field(default_factory=set)


def record_outcome(
    ledger: ExperienceLedger,
    son: Son,
    outcome: Outcome,
    t: LogicalTime,
    policy: EvolutionPolicy,
) -> None:
    """Book one dissolved overlay into the ledger.

    Success strengthens every pairwise connection among the participants by
    the policy increment, and the success that first reaches the promotion
    threshold puts the signature in ``ledger.ready``; failure is timestamped
    so pruning can look at a sliding window.
    """
    sig = SonSignature.of(son)
    rec = ledger.son_outcomes.setdefault(sig, SignatureRecord())
    actors = [a for a, _ in son.members]
    for a in actors:
        perf = ledger.holon_perf.setdefault(a, HolonRecord())
        if outcome is Outcome.SUCCESS:
            perf.completed += 1
        else:
            perf.failed += 1
    if outcome is Outcome.SUCCESS:
        rec.successes += 1
        if rec.successes == policy.permanentify_threshold:
            ledger.ready.add(sig)
        for i, a in enumerate(actors):
            for b in actors[i + 1 :]:
                pair = (a, b) if a < b else (b, a)
                ledger.strengths[pair] = ledger.strengths.get(pair, 0.0) + policy.strength_increment
    else:
        rec.failures += 1
        rec.failure_times.append(t)


def connection_strength(ledger: ExperienceLedger, a: HolonId, b: HolonId) -> float:
    """Accumulated collaboration strength between two actors; symmetric."""
    if a == b:
        return 0.0
    pair = (a, b) if a < b else (b, a)
    return ledger.strengths.get(pair, 0.0)


@dataclass(frozen=True)
class PromotionEvent:
    soc: HolonId
    parent: HolonId
    members: tuple[HolonId, ...]
    activity: int


@dataclass(frozen=True)
class PruneEvent:
    soc: HolonId
    parent: HolonId
    members: tuple[HolonId, ...]


def _lca(h: Holarchy, nodes: list[HolonId]) -> HolonId:
    chains = [h.chain_to_root(n) for n in nodes]
    others = [set(c) for c in chains[1:]]
    for node in chains[0]:
        if all(node in o for o in others):
            return node
    raise EvolutionError(f"holons {nodes} share no ancestor")


def maybe_permanentify(
    ledger: ExperienceLedger,
    h: Holarchy,
    policy: EvolutionPolicy,
    t: LogicalTime,
) -> tuple[Holarchy, tuple[PromotionEvent, ...]]:
    """Promote every signature that has crossed the success threshold.

    Each promotion happens once per signature, creates a fresh SoC id, and
    grafts the new community under the lowest SoC already containing all
    its members. The members keep their original communities; the new SoC
    references them as a secondary, institutional overlay.
    """
    if not ledger.ready:
        return h, ()
    existing_member_sets = {
        tuple(sorted(n.members)) for n in h.holons.values() if n.is_composite
    }
    due = [
        sig
        for sig in sorted(ledger.ready, key=lambda s: (s.activity, s.members))
        if sig.members not in existing_member_sets
    ]
    if not due:
        return h, ()

    holons = dict(h.holons)
    parent = dict(h.parent)
    registries = dict(h.registries)
    events: list[PromotionEvent] = []
    next_id = max(holons) + 1

    for sig in due:
        ledger.ready.discard(sig)
        if sig.members in existing_member_sets:
            # an earlier promotion in this same pass took the member set
            ledger.permanentified.add(sig)
            continue
        existing_member_sets.add(sig.members)
        soc_id = next_id
        next_id += 1
        anchor = _lca(h, [h.parent[m] for m in sig.members])
        new_soc = Holon(
            id=soc_id,
            kind=HolonKind.COMPOSITE,
            members=sig.members,
            representative=min(sig.members),
            origin=HolonOrigin.PERMANENTIFIED,
        )
        holons[soc_id] = new_soc
        parent[soc_id] = anchor
        old_anchor = holons[anchor]
        holons[anchor] = Holon(
            id=anchor,
            kind=old_anchor.kind,
            capabilities=old_anchor.capabilities,
            members=old_anchor.members + (soc_id,),
            representative=old_anchor.representative,
            origin=old_anchor.origin,
        )

        own = Registry(owner=soc_id)
        for m in sig.members:
            for role in sorted(holons[m].capabilities):
                own.service_entries.append(ServiceEntry(m, role, registered_at=t))
        own.service_entries.sort(key=ServiceEntry.sort_key)
        registries[soc_id] = own

        anchor_reg = registries[anchor].copy()
        caps = sorted({r for m in sig.members for r in holons[m].capabilities})
        for role in caps:
            anchor_reg.service_entries.append(
                ServiceEntry(new_soc.representative, role, registered_at=t, via=soc_id)
            )
        anchor_reg.service_entries.sort(key=ServiceEntry.sort_key)
        registries[anchor] = anchor_reg

        ledger.permanentified.add(sig)
        ledger.created_socs[soc_id] = sig
        events.append(PromotionEvent(soc_id, anchor, sig.members, sig.activity))

    evolved = Holarchy(holons, parent, h.root, h.roles, registries, h.role_atoms_cache())
    return evolved, tuple(events)


def maybe_prune(
    ledger: ExperienceLedger,
    h: Holarchy,
    policy: EvolutionPolicy,
    t: LogicalTime,
) -> tuple[Holarchy, tuple[PruneEvent, ...]]:
    """Remove promoted SoCs whose signature keeps failing.

    A promoted SoC is pruned when its signature collected at least the
    threshold number of failures inside the sliding window ending now. Only
    promoted SoCs are ever pruned; the scenario structure is untouchable.
    """
    due: list[HolonId] = []
    for soc in sorted(ledger.created_socs):
        if soc not in h.holons:
            continue
        sig = ledger.created_socs[soc]
        rec = ledger.son_outcomes.get(sig)
        if rec is None:
            continue
        recent = [ft for ft in rec.failure_times if t - policy.prune_window < ft <= t]
        if len(recent) >= policy.prune_failure_threshold:
            due.append(soc)
    if not due:
        return h, ()

    holons = dict(h.holons)
    parent = dict(h.parent)
    registries = dict(h.registries)
    events: list[PruneEvent] = []

    for soc in due:
        anchor = parent[soc]
        members = holons[soc].members
        del holons[soc]
        del parent[soc]
        del registries[soc]
        old_anchor = holons[anchor]
        holons[anchor] = Holon(
            id=anchor,
            kind=old_anchor.kind,
            capabilities=old_anchor.capabilities,
            members=tuple(m for m in old_anchor.members if m != soc),
            representative=old_anchor.representative,
            origin=old_anchor.origin,
        )
        anchor_reg = registries[anchor].copy()
        anchor_reg.service_entries = [e for e in anchor_reg.service_entries if e.via != soc]
        registries[anchor] = anchor_reg
        del ledger.created_socs[soc]
        events.append(PruneEvent(soc, anchor, members))

    evolved = Holarchy(holons, parent, h.root, h.roles, registries, h.role_atoms_cache(dropped=due))
    return evolved, tuple(events)
