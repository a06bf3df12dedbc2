"""The canon: how a community answers published events.

Each SoC applies the same two rules. The representative rule: when an event
arrives, find a response activity whose trigger matches, and try to staff
its required roles from the providers visible in the local registry. The
exception rule: when staffing fails, escalate the request to the higher-up
community, which retries with its wider view; at the root the request is
unresolvable. :func:`resolve_request` applies both rules by walking the
chain from the start SoC to the root, one hop at a time.

A request is staffed at some hop or escalates past the root unresolved, and
either way resolution answers with one :class:`Staffing` record: the
escalation hops taken, what the last SoC reached still missed, and, when
nothing is missing, the assignment for a temporary overlay community (a
SON) that enrolls the chosen actors for the activity's duration and may
span several SoCs. Everything here is deterministic: candidates are ranked
by actor id, and role slots are filled with the lexicographically least
workable assignment.

Escalation only ever widens the view, so a request keeps one candidate pool
and grows it hop by hop: hop k merges in the registry of the k-th SoC on the
chain and nothing else. An activity with ``s`` role slots never needs more
than each role's best ``s`` idle candidates (see :func:`_solve`), so that is
all the pool keeps: per role the activity asks for, the at most ``s``
lowest ids among the idle actors the registries merged so far offer, in
ascending order. The merge order does not matter.

A registry is read through the holarchy's ranked offer view
(:meth:`Holarchy.ranked_offers`): per role, every actor it offers, once,
in id order, with punctualized entries already unfolded. The view is
built on first use and again only after that registry's service entries
change. A hop reads each view from the front, stops after ``s`` idle
actors and merges what it read into the list in one step, or takes it
as the list when the list is empty. Data topics come from each
registry's maintained topic set. So while the views, the chain and the
topics stay put, which of the actors its scans read were idle fixes a
request's answer, and :func:`resolve_request` can replay it from a memo.

Each solve builds one matching of slots to candidates and reads both
answers from it: which slots cannot be covered, and the least assignment.
Most slots are filled by taking their first candidate no other slot holds,
and a solve that never had to reroute a slot is already the least
assignment, so it skips the pass that looks for a smaller one (see
:func:`_solve`).
"""

from __future__ import annotations

from dataclasses import dataclass

from .activation import ActivationState, enroll, release
from .holarchy import (
    Holarchy,
    HolonId,
    InformationItem,
    LogicalTime,
    Registry,
    RoleId,
)

# stands in for a missing data topic inside a missing-roles list; never a
# real role id, never enrollable
DATA_MISSING = -1


class CanonError(Exception):
    pass


@dataclass(frozen=True)
class ResponseActivity:
    """A guarded reaction: trigger topics, role slots to staff, data needs.

    ``required_roles`` is a multiset kept as a sorted tuple; the same role
    can appear several times and then needs that many distinct actors.
    """

    id: int
    trigger_topics: frozenset[str]
    required_roles: tuple[RoleId, ...]
    required_data: frozenset[str] = frozenset()
    duration: int = 1

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"activity id {self.id} is negative")
        if not self.trigger_topics:
            raise ValueError(f"activity {self.id} has no trigger topics")
        if not self.required_roles:
            raise ValueError(f"activity {self.id} requires no roles")
        if tuple(sorted(self.required_roles)) != self.required_roles:
            object.__setattr__(self, "required_roles", tuple(sorted(self.required_roles)))
        if self.duration < 1:
            raise ValueError(f"activity {self.id} has non-positive duration")


@dataclass(frozen=True)
class ActivityTable:
    """All response activities of a scenario.

    ``known_topics`` (every trigger and data topic) and the lookup behind
    :meth:`triggered_by` are built once, at construction. They are plain
    attributes, not dataclass fields, so they take no part in comparison
    or repr.
    """

    activities: tuple[ResponseActivity, ...]

    def __post_init__(self) -> None:
        ids = [a.id for a in self.activities]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate activity ids")
        if ids != sorted(ids):
            object.__setattr__(self, "activities", tuple(sorted(self.activities, key=lambda a: a.id)))
        topics: set[str] = set()
        by_topic: dict[str, list[ResponseActivity]] = {}
        for a in self.activities:
            topics |= a.trigger_topics
            topics |= a.required_data
            for topic in a.trigger_topics:
                by_topic.setdefault(topic, []).append(a)
        object.__setattr__(self, "known_topics", frozenset(topics))
        object.__setattr__(self, "_by_topic", {topic: tuple(acts) for topic, acts in by_topic.items()})

    def triggered_by(self, topic: str) -> tuple[ResponseActivity, ...]:
        return self._by_topic.get(topic, ())


@dataclass(slots=True)
class HopRecord:
    """One escalation step, kept for the trace.

    Built once per hop and then only read, never hashed: slotted rather
    than frozen, since a frozen field costs a call on every construction.
    """

    from_soc: HolonId
    to_soc: HolonId
    hop: int
    missing: tuple[int, ...]


@dataclass(slots=True)
class Staffing:
    """How one request ended: staffed at some hop, or unresolved at the root.

    ``hops`` are the escalations taken, so ``len(hops)`` is the hop count
    and ``resolved_soc`` the last SoC reached. ``missing`` is what that SoC
    could not cover, in the form :func:`_solve` reports it; it is empty
    exactly when ``assignment`` pairs every role slot with an actor, and
    ``spanned_socs`` then holds the start SoC and each member's home SoC.

    Built once per attempt and then only read, never hashed: slotted rather
    than frozen, since a frozen field costs a call on every construction.
    """

    hops: tuple[HopRecord, ...]
    missing: tuple[int, ...]
    assignment: tuple[tuple[HolonId, RoleId], ...]
    resolved_soc: HolonId
    spanned_socs: frozenset[HolonId]


@dataclass(slots=True)
class Son:
    """A live temporary overlay community answering one activity instance.

    Built once per formation and then only read, never hashed (the ledger
    keys on its :class:`~fso_sim.evolution.SonSignature`): slotted rather
    than frozen, since a frozen field costs a call on every construction.
    """

    id: int
    activity: int
    members: tuple[tuple[HolonId, RoleId], ...]
    dissolves_at: LogicalTime


def publish(
    reg: Registry,
    item: InformationItem,
    table: ActivityTable,
) -> tuple[ResponseActivity, ...]:
    """Append ``item`` to the registry and return the activities it triggers.

    Raises CanonError for a topic no activity or scenario declares, and
    when timestamps would run backwards.
    """
    if item.topic not in table.known_topics:
        raise CanonError(f"topic {item.topic!r} is not declared anywhere")
    if reg.info_entries and item.published_at < reg.info_entries[-1].published_at:
        raise CanonError(
            f"publish at t={item.published_at} after t={reg.info_entries[-1].published_at}"
        )
    reg.info_entries.append(item)
    reg.topics.add(item.topic)
    return table.triggered_by(item.topic)


# -- candidate pools --------------------------------------------------------

# role -> its best s idle actors, in id order, for the roles one activity needs
Pool = dict[RoleId, list[HolonId]]


# -- role slot matching ------------------------------------------------------


def _solve(
    activity: ResponseActivity,
    pool: Pool,
    available_data: set[str],
) -> tuple[tuple[int, ...], tuple[tuple[HolonId, RoleId], ...]]:
    """Staff the activity's role slots from the pool, or say what is missing.

    Returns ``(missing, assignment)``. ``missing`` lists the role of each
    uncoverable slot, then one ``DATA_MISSING`` per absent data topic, and
    is empty exactly when ``assignment`` pairs every slot with an actor;
    otherwise ``assignment`` is empty.

    Slots are filled in sorted role order with the smallest-ranked actor
    that still leaves the rest completable, which makes the chosen
    assignment the lexicographically least perfect matching. When no
    perfect matching exists the uncoverable slots are reported, greedily:
    slots kept while a matching still extends over them form a maximum one.

    Each slot sees only its role's best ``s = len(slots)`` candidates, and
    that changes no answer. Were a slot of the least matching held by an
    actor ranked below them, one of them would be free, since the other
    slots hold at most ``s - 1`` actors, and swapping it in would give a
    smaller matching. The same swap shows that every completability test
    finds a matching on the best ``s`` exactly when it finds one on all
    candidates.

    One matching serves every test. ``missing`` comes from a single Kuhn
    pass: augment from each slot in order, and the slot is missing exactly
    when its augment fails. The slots kept so far are perfectly matched,
    so slot ``i`` is the only free vertex on the slot side, and by Berge's
    theorem the kept slots plus ``i`` have a perfect matching exactly when
    an augmenting path starts at ``i``. An augment takes a free candidate
    when it has one, a path of length one, before it looks for longer
    paths, and a failed augment writes nothing. The pass does that first
    step inline, giving each slot the first candidate no slot holds yet,
    and calls the augment only for a slot whose candidates are all held;
    a slot with no candidates is missing at once.

    The least assignment then walks the slots in order, holding slots
    before ``i`` fixed and the rest perfectly matched. Only candidates
    ranked before slot ``i``'s current actor can improve on it. A free one
    swaps in and the matching stays perfect. One held by a fixed slot is
    taken. One held by a later slot ``j`` moves to ``i``, freeing the old
    actor; then ``j`` is the only free slot among the later ones, so by
    Berge again they can be completed exactly when an augment from ``j``
    that avoids the fixed actors and the candidate succeeds. If it fails,
    the move is undone. The walk runs only when some augment rerouted:
    otherwise every candidate ranked before a slot's actor was held, when
    that slot took it, by an earlier slot that the walk holds fixed, so
    the walk meets only taken actors and changes nothing.
    """
    slots = activity.required_roles
    per_slot = [pool[role] for role in slots]
    slot_of: dict[HolonId, int] = {}
    actor_of: list[HolonId | None] = [None] * len(slots)

    def augment(i: int, visited: set[HolonId]) -> bool:
        for a in per_slot[i]:
            if a not in slot_of and a not in visited:
                slot_of[a] = i
                actor_of[i] = a
                return True
        # depth first with an explicit stack, as a path may pass every slot:
        # stack[k] is a slot and its scan for a held actor to take over, and
        # asked[k] the actor it would take from the slot at stack[k + 1]
        stack = [(i, iter(per_slot[i]))]
        asked: list[HolonId] = []
        while stack:
            for a in stack[-1][1]:
                if a not in visited:
                    break
            else:
                # a dead end: back up, and the slot before it scans on
                stack.pop()
                if asked:
                    asked.pop()
                continue
            visited.add(a)
            asked.append(a)
            slot = slot_of[a]
            for b in per_slot[slot]:
                if b not in slot_of and b not in visited:
                    slot_of[b] = slot
                    actor_of[slot] = b
                    for (k, _), c in zip(stack, asked):
                        slot_of[c] = k
                        actor_of[k] = c
                    return True
            stack.append((slot, iter(per_slot[slot])))
        return False

    missing: list[int] = []
    rerouted = False
    for i, candidates in enumerate(per_slot):
        for a in candidates:
            if a not in slot_of:
                slot_of[a] = i
                actor_of[i] = a
                break
        else:
            if candidates and augment(i, set()):
                rerouted = True
            else:
                missing.append(slots[i])
    if activity.required_data:
        missing += [DATA_MISSING] * len(activity.required_data - available_data)
    if missing:
        return tuple(missing), ()

    if rerouted:
        taken: set[HolonId] = set()
        for i, candidates in enumerate(per_slot):
            current = actor_of[i]
            for c in candidates:
                if c == current:
                    break
                if c in taken:
                    continue
                j = slot_of.get(c)
                del slot_of[current]
                slot_of[c] = i
                actor_of[i] = c
                if j is None or augment(j, taken | {c}):
                    break
                slot_of[current] = i
                slot_of[c] = j
                actor_of[i] = current
            taken.add(actor_of[i])
    return (), tuple(zip(actor_of, slots))


# -- the two canon rules, applied along the chain to the root -----------------


# (activity id, start SoC) -> {staffed: (last answer, actors read idle, actors read busy)}
Memo = dict[tuple[int, HolonId], dict[bool, tuple[Staffing, list[HolonId], list[HolonId]]]]


def resolve_request(
    activity: ResponseActivity,
    start_soc: HolonId,
    h: Holarchy,
    state: ActivationState,
    memo: Memo | None = None,
) -> Staffing:
    """Run the canon from ``start_soc`` upward until staffed or exhausted.

    Hop k applies the representative rule at the k-th SoC of the chain to
    the root; when it fails, the exception rule passes the request to the
    (k+1)-th, and past the root the request is unresolved. Each escalation
    widens the view: the community at hop k works with the registries of the
    whole visited chain, so information published below stays usable above.
    The pool and the data topics seen so far carry over from hop to hop, and
    hop k adds only the k-th registry. Escalation hops are recorded for the
    trace. A staffed request spans the start SoC and its members' home
    SoCs; an unresolved one ends at the root and spans none. The chain is
    walked through ``h.parent`` one hop at a time, never built whole: a
    request staffed at its start SoC, the usual case, looks no higher.

    Each hop takes one pass over the activity's distinct roles. A role's
    ranked offer view is read from the front, skipping busy actors, and
    left after ``s`` idle ones, since those beat any later one. What was
    read joins the role's list: an empty list becomes it, and otherwise,
    unless the two are equal, their union is sorted and cut to ``s``. The
    cut loses nothing: an actor that falls off is beaten by ``s`` lower
    ids, which stay in the pool at every later hop.

    The answer depends on ``state`` only through which actors the scans
    read were idle, so a ``memo`` keeps, per activity id and start SoC, the
    last staffed and the last failed answer with the actors read idle and
    busy, and replays one while the first are all idle and the second all
    busy. The caller empties it on a new topic, a graft and a remove.
    """
    node = h.holons.get(start_soc)
    if node is None or not node.is_composite:
        raise CanonError(f"cannot resolve from {start_soc}, which is not a SoC")

    idle = state.inactive
    if memo is not None:
        pair = (activity.id, start_soc)
        for answer, were_idle, were_busy in memo.get(pair, {}).values():
            if idle.isdisjoint(were_busy) and idle.issuperset(were_idle):
                return answer
    parent = h.parent
    ranked_offers = h.ranked_offers
    roles = dict.fromkeys(activity.required_roles)
    s = len(activity.required_roles)
    hops: list[HopRecord] = []
    pool: Pool = {}
    data: set[str] = set()
    read: list[HolonId] = []  # the actors the scans read idle
    busy: list[HolonId] = []  # the actors they read busy
    soc = start_soc
    while True:
        for role in roles:
            fresh = []
            for a in ranked_offers(soc, role):
                if a in idle:
                    fresh.append(a)
                    if len(fresh) == s:
                        break
                else:
                    busy.append(a)
            read += fresh
            best = pool.get(role)
            if not best:
                pool[role] = fresh
            elif fresh and fresh != best:
                pool[role] = sorted({*best, *fresh})[:s]
        if activity.required_data:
            data |= h.registries[soc].topics
        missing, assignment = _solve(activity, pool, data)
        up = parent.get(soc)
        if not missing or up is None:
            break
        hops.append(HopRecord(soc, up, len(hops) + 1, missing))
        soc = up
    spanned = {start_soc} if assignment else set()
    for a, _ in assignment:
        spanned.add(parent[a])
    answer = Staffing(tuple(hops), missing, assignment, soc, frozenset(spanned))
    if memo is not None:
        memo.setdefault(pair, {})[not missing] = (answer, read, busy)
    return answer


# -- overlay lifecycle -------------------------------------------------------


def form_son(
    activity: ResponseActivity,
    assignment: tuple[tuple[HolonId, RoleId], ...],
    son_id: int,
    t: LogicalTime,
    state: ActivationState,
    h: Holarchy,
) -> Son:
    """Enroll the assigned members and open the overlay for ``activity``.

    Raises CanonError, enrolling nobody, when some assigned actor is busy
    by now; the caller should re-resolve instead of forcing the assignment.
    """
    for a, _ in assignment:
        if a in state.active:
            raise CanonError(f"actor {a} became busy before SON {son_id} formed")
    for a, role in assignment:
        enroll(state, h, a, role, son_id)
    return Son(son_id, activity.id, assignment, t + activity.duration)


def dissolve_son(son: Son, t: LogicalTime, state: ActivationState) -> None:
    """Close the overlay on schedule, returning every member to the reserve.

    Raises CanonError when called before the overlay's dissolve tick and,
    releasing nobody, when some member is not bound to this overlay in the
    role it was enrolled for.
    """
    if t != son.dissolves_at:
        raise CanonError(f"SON {son.id} dissolves at {son.dissolves_at}, not {t}")
    for a, role in son.members:
        binding = state.active.get(a)
        if binding is None or binding.son_id != son.id or binding.role != role:
            raise CanonError(f"actor {a} is not bound to SON {son.id} as role {role}")
    for a, _ in son.members:
        release(state, a)
