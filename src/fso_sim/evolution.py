"""Learning from overlays: permanentification and pruning.

Every dissolved overlay community leaves a record keyed by its signature
(the activity plus the exact set of participants). Signatures that keep
succeeding get promoted: the recurring overlay becomes a permanent SoC
grafted under the lowest community that contains all its members.
Promotion does not yet let a later request be answered without climbing:
the members are already under that ancestor, so no SoC's role atoms
change, and a promoted SoC is never a request's start SoC nor any holon's
parent, so it is never on a staffing chain. No staffing decision changes.
Promoted SoCs that then keep failing are pruned again, restoring the
earlier shape.

Promotion and pruning edit the run's one holarchy in place, through
:meth:`Holarchy.graft` and :meth:`Holarchy.remove`, and return only their
events. Evolution decides only what is due and where it hangs: ``graft``
allocates the new SoC's id, builds it and lists it in its anchor, writing
no registry, and an id that ``remove`` frees may be allocated again to a
different team.

Both look only at what can have changed since the last tick. The ledger
keeps the signatures that have reached the promotion threshold but are not
promoted yet in ``ready``; a signature whose member set some SoC already
holds stays there and is promoted once no SoC holds it. Whether one does is
read from the holarchy's counted index of member lists, not from a scan of
its SoCs; an anchor that lists the members again blocks the signature as
much as the promoted SoC that listed them before. A windowed
failure count can only rise when a failure is booked, so ``recheck`` holds
just the promoted signatures that failed, or were promoted, since the last
:func:`maybe_prune`, and a tick with neither prunes without looking at any
SoC. With ``recheck`` empty and every ready signature blocked, its member
set held by some SoC, neither function does anything, so the engine runs
evolution only on a tick with a signature to re-check or with
:func:`promotion_due` true, and skips it on every other; and since
``maybe_prune`` empties ``recheck``, a tick can leave work due on the next
one only by freeing the member set of a ready signature. A prune frees it
by removing the SoC that held it. A graft can too: it adds the promoted
SoC to its anchor's member list, so an anchor that held a ready
signature's set when the pass started holds it no longer.
:func:`promotion_due` tells either.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .canon import Son
from .holarchy import Holarchy, HolonId, LogicalTime


@dataclass(frozen=True)
class FailureWindow:
    """Injected fault: overlays of ``activity`` dissolving in [start, stop) fail."""

    activity: int
    start: LogicalTime
    stop: LogicalTime


@dataclass(frozen=True)
class EvolutionPolicy:
    permanentify_threshold: int
    prune_failure_threshold: int
    prune_window: int
    failure_injections: tuple[FailureWindow, ...] = ()

    def __post_init__(self) -> None:
        if self.permanentify_threshold < 1:
            raise ValueError("permanentify_threshold must be at least 1")
        if self.prune_failure_threshold < 1:
            raise ValueError("prune_failure_threshold must be at least 1")
        if self.prune_window < 1:
            raise ValueError("prune_window must be at least 1")
        # activity -> its failure windows, so an outcome reads only its own;
        # a plain attribute, not a field, so it takes no part in == or repr
        windows: dict[int, list[FailureWindow]] = {}
        for window in self.failure_injections:
            windows.setdefault(window.activity, []).append(window)
        object.__setattr__(self, "_windows", {a: tuple(ws) for a, ws in windows.items()})

    def outcome_of(self, activity: int, t: LogicalTime) -> "Outcome":
        # the windows are keyed by activity, so only their spans need a test
        for window in self._windows.get(activity, ()):
            if window.start <= t < window.stop:
                return Outcome.FAILURE
        return Outcome.SUCCESS


class Outcome(Enum):
    SUCCESS = "success"
    FAILURE = "failure"


class SonSignature(NamedTuple):
    """What recurs: the activity and exactly which actors answered it.

    The ledger's key. A tuple rather than a frozen dataclass, so hashing
    and comparing it are C-level: its hash is ``hash((activity, members))``,
    as the frozen dataclass's was, so the order of every set of
    signatures is unchanged, and signatures sort by themselves. A plain
    ``(activity, members)`` tuple hashes and compares equal to it, so
    :func:`record_outcome` looks a signature up by the overlay's
    ``(activity, team)`` and builds one only the first time it books it.
    :meth:`of` is the reference definition of an overlay's signature.
    """

    activity: int
    members: tuple[HolonId, ...]

    @staticmethod
    def of(son: Son) -> "SonSignature":
        # tuple.__new__, as _make does, skips the Python-level constructor
        return tuple.__new__(SonSignature, (son.activity, tuple(sorted(map(itemgetter(0), son.members)))))


_MEMBERS = attrgetter("members")


@dataclass
class SignatureRecord:
    """One signature's outcomes, with the signature they are booked under.

    ``signature`` is the :class:`SonSignature` built when the signature was
    first booked, the same object that keys ``son_outcomes``; the ledger's
    sets take it, so they hold signatures and never the plain tuples a
    lookup uses.
    """

    signature: SonSignature
    successes: int = 0
    failure_times: list[LogicalTime] = field(default_factory=list)


@dataclass
class ExperienceLedger:
    """Accumulated memory of overlay outcomes."""

    son_outcomes: dict[SonSignature, SignatureRecord] = field(default_factory=dict)
    # the live promoted SoC of each signature; at most one, since a member
    # set some SoC holds is never promoted again
    promoted: dict[SonSignature, HolonId] = field(default_factory=dict)
    ready: set[SonSignature] = field(default_factory=set)
    recheck: set[SonSignature] = field(default_factory=set)
    # promotion_due's last answer, keyed by the holarchy's edit count it
    # read; None once ``ready`` has changed since
    due: tuple[int, bool] | None = field(default=None, compare=False, repr=False)


def record_outcome(
    ledger: ExperienceLedger,
    son: Son,
    outcome: Outcome,
    t: LogicalTime,
    policy: EvolutionPolicy,
) -> None:
    """Book one dissolved overlay into the ledger.

    Success is counted, and the success that first reaches the promotion
    threshold puts the signature in ``ledger.ready``; failure is timestamped
    so pruning can look at a sliding window, and a failing promoted
    signature goes into ``ledger.recheck``. Booking a failure at ``t``
    forgets the signature's failures at or before ``t - prune_window``,
    which no later window can count.

    The record is looked up by ``(son.activity, son.team)``, the sorted
    team its staffing answer built, which equals ``SonSignature.of(son)``.
    Only a signature booked for the first time is built as a
    :class:`SonSignature`, and kept on its :class:`SignatureRecord` for the
    sets to take.
    """
    key = (son.activity, son.team)
    rec = ledger.son_outcomes.get(key)
    if rec is None:
        sig = tuple.__new__(SonSignature, key)
        rec = ledger.son_outcomes[sig] = SignatureRecord(sig)
    if outcome is Outcome.SUCCESS:
        rec.successes += 1
        if rec.successes == policy.permanentify_threshold:
            ledger.ready.add(rec.signature)
            ledger.due = None
    else:
        del rec.failure_times[: bisect_right(rec.failure_times, t - policy.prune_window)]
        rec.failure_times.append(t)
        if key in ledger.promoted:
            ledger.recheck.add(rec.signature)


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
    # every chain ends at the one root, so some node is common to all
    return next(node for node in chains[0] if all(node in o for o in others))


def promotion_due(ledger: ExperienceLedger, h: Holarchy) -> bool:
    """Whether :func:`maybe_permanentify` would promote anything now.

    A ready signature waits only while some SoC holds its member set, and a
    promotion pass takes only those whose set no SoC held when it started.
    After a pass this turns true when a prune frees a member set, or when a
    graft of the pass relisted its anchor, which held a ready signature's
    set when the pass started. So the answer of :func:`ready_free` is kept
    in ``ledger.due`` and read again until ``ready`` or a member list
    changes (``h.edits``); a debug run checks it after every step.
    """
    due = ledger.due
    if due is None or due[0] != h.edits:
        due = ledger.due = (h.edits, ready_free(ledger, h))
    return due[1]


def ready_free(ledger: ExperienceLedger, h: Holarchy) -> bool:
    """Whether some ready signature's member set is listed by no SoC, by a scan."""
    return not all(map(h.holds_members, map(_MEMBERS, ledger.ready)))


def maybe_permanentify(ledger: ExperienceLedger, h: Holarchy) -> tuple[PromotionEvent, ...]:
    """Promote every signature that has crossed the success threshold.

    Each promotion happens once per signature and grafts the new community
    under the lowest SoC already containing all its members. The members
    keep their original communities; the new SoC references them as a
    secondary, institutional overlay.
    """
    due = sorted(sig for sig in ledger.ready if not h.holds_members(sig.members))
    if not due:
        return ()
    events: list[PromotionEvent] = []
    for sig in due:
        if h.holds_members(sig.members):
            # an earlier promotion in this same pass took the member set; the
            # signature stays ready until that SoC is pruned
            continue
        ledger.ready.discard(sig)
        ledger.due = None
        anchor = _lca(h, [h.parent[m] for m in sig.members])
        soc_id = h.graft(sig.members, anchor)
        ledger.promoted[sig] = soc_id
        ledger.recheck.add(sig)
        events.append(PromotionEvent(soc_id, anchor, sig.members, sig.activity))

    return tuple(events)


def maybe_prune(
    ledger: ExperienceLedger,
    h: Holarchy,
    policy: EvolutionPolicy,
    t: LogicalTime,
) -> tuple[PruneEvent, ...]:
    """Remove promoted SoCs whose signature keeps failing.

    A promoted SoC is pruned when its signature collected at least the
    threshold number of failures inside the sliding window ending now. Only
    promoted SoCs are ever pruned; the scenario structure is untouchable.
    Only the signatures in ``ledger.recheck`` are counted.
    """
    due: dict[HolonId, SonSignature] = {}
    for sig in ledger.recheck:
        times = ledger.son_outcomes[sig].failure_times
        if bisect_right(times, t) - bisect_right(times, t - policy.prune_window) >= policy.prune_failure_threshold:
            due[ledger.promoted[sig]] = sig
    ledger.recheck.clear()

    events: list[PruneEvent] = []
    for soc in sorted(due):
        members = h.holons[soc].members
        anchor = h.remove(soc)
        del ledger.promoted[due[soc]]
        events.append(PruneEvent(soc, anchor, members))
    return tuple(events)
