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

Escalation only ever widens the view. Each SoC on the chain lists the one
below it as a member, so the actors under it include every actor under the
SoCs visited before, and hop k reads only the role atoms of the k-th SoC
(:meth:`Holarchy.atoms_by_role`): per role, the actors under it that can play
the role, in id order. They are exactly the actors the visited registries
offer once each punctualized entry is unfolded, so staffing reads no
service entry.

A hop staffs by first fit. It walks the activity's slots in sorted role
order, and each slot takes the first idle actor in its role's atoms that
no earlier slot holds; a slot whose role has no idle actor is missing. A
scan reads a role's atoms from the front and stops at the actor it takes,
so it reads only the busy actors it passes and the idle actors it meets.
While no slot has to reroute another, that is the least assignment. Only
when a slot meets idle actors of its role but finds every one held by an
earlier slot, a held conflict, may an augmenting path free one. Then the
hop builds a pool and solves the role matching on it (:func:`_solve`). An
activity with ``s`` role slots never needs more than each role's best
``s`` idle candidates, so that is all the pool keeps: per role the
activity asks for, the at most ``s`` lowest ids among the idle actors
under the hop's SoC, in ascending order. Data topics come from each
registry's maintained topic set and carry over from hop to hop. So while
the chain, the actors under its SoCs and the topics stay put, which of the
actors its scans read were idle fixes a request's answer, and
:func:`resolve_request` can replay it from a memo.

Each solve builds one matching of slots to candidates by augmenting from
each slot in turn, and reads both answers from it: which slots cannot be
covered, and, by one walk over the slots, the least assignment (see
:func:`_solve`).
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .activation import ActivationError, ActivationState, enroll, release
from .holarchy import (
    Holarchy,
    HolarchyError,
    HolonId,
    InformationItem,
    LogicalTime,
    Registry,
    RoleId,
)

# an assignment pair's actor, read without a Python-level frame
_ACTOR = itemgetter(0)

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
    exactly when ``assignment`` pairs every role slot with an actor. Then
    ``team`` holds the assigned actors' ids, sorted, which the overlay
    formed from this answer carries to the experience ledger as its key,
    and ``spanned_socs`` the start SoC and each member's home SoC, sorted,
    as the ``SonFormed`` record of every attempt it answers writes; an
    unstaffed answer has both empty.

    Built once per fresh answer and then only read, never hashed: slotted
    rather than frozen, since a frozen field costs a call on every
    construction.
    """

    hops: tuple[HopRecord, ...]
    missing: tuple[int, ...]
    assignment: tuple[tuple[HolonId, RoleId], ...]
    team: tuple[HolonId, ...]
    resolved_soc: HolonId
    spanned_socs: tuple[HolonId, ...]


@dataclass(slots=True)
class Son:
    """A live temporary overlay community answering one activity instance.

    ``members`` are the answer's ``(actor, role)`` pairs and ``team`` its
    sorted actor ids, the tuple the answer built once and every replay of
    it shares. The ledger books the overlay under ``(activity, team)``,
    which equals its :class:`~fso_sim.evolution.SonSignature`, so no
    dissolve sorts the members again.

    Built once per formation and then only read, never hashed. Slotted
    rather than frozen, since a frozen field costs a call on every
    construction.
    """

    id: int
    activity: int
    members: tuple[tuple[HolonId, RoleId], ...]
    team: tuple[HolonId, ...]
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
    otherwise ``assignment`` is empty. :func:`resolve_request` settles a hop
    by first fit and calls this only on a held conflict, where a slot finds
    every idle actor of its role held by an earlier slot. This is the one
    statement of the matching, which the tests hold to brute force.

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
    an augmenting path starts at ``i``. An augment takes the first
    candidate no slot holds yet, a path of length one, before it looks for
    longer paths; a failed augment writes nothing, and a slot with no
    candidates fails at once.

    The least assignment then walks the slots in order, holding slots
    before ``i`` fixed and the rest perfectly matched. Only candidates
    ranked before slot ``i``'s current actor can improve on it. A free one
    swaps in and the matching stays perfect. One held by a fixed slot is
    taken. One held by a later slot ``j`` moves to ``i``, freeing the old
    actor; then ``j`` is the only free slot among the later ones, so by
    Berge again they can be completed exactly when an augment from ``j``
    that avoids the fixed actors and the candidate succeeds. If it fails,
    the move is undone.
    """
    slots = activity.required_roles
    per_slot = list(map(pool.__getitem__, slots))
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

    missing = [role for i, role in enumerate(slots) if not augment(i, set())]
    if activity.required_data:
        missing += [DATA_MISSING] * len(activity.required_data - available_data)
    if missing:
        return tuple(missing), ()

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
    widens the view: the community at hop k works with every actor under
    the k-th SoC and with the information published on the whole visited
    chain, so information published below stays usable above. The data
    topics seen so far carry over from hop to hop, and hop k adds only the
    k-th registry's. Escalation hops are recorded for the trace. A staffed
    request spans the start SoC and its members' home SoCs; an unresolved
    one ends at the root and spans none. The chain is walked through
    ``h.parent`` one hop at a time, never built whole: a request staffed at
    its start SoC, the usual case, looks no higher. A start that is not a
    SoC of the scenario, a promoted one included, raises CanonError.

    Each hop reads its SoC's role atoms (:meth:`Holarchy.atoms_by_role`)
    once and staffs by first fit: each slot, in order, takes the first
    idle actor of its role that no earlier slot holds, and slots of one
    role share one scan from the front. That is exact. When slot ``i``
    scans, earlier slots hold at most ``i < s`` actors, so the actor it
    takes is among its role's best ``s`` idle ones and is the free
    candidate :func:`_solve`'s augment from that slot takes first; a slot
    whose role has no idle actor is one whose augment fails, which
    :func:`_solve` reports missing. Only a held conflict, a slot whose
    role's idle actors are all held, may need an augmenting path: the hop
    then drops what its scan read, reads each role's best ``s`` idle
    actors into a pool and calls :func:`_solve`.
    The hop's role atoms are the whole visited chain's: the hop's SoC lists
    the previous hop's as a member, so its role atoms contain every earlier
    hop's, and no candidate is kept from hop to hop.

    The answer depends on ``state`` only through which actors the scans
    read were idle, so a ``memo`` keeps, per activity id and start SoC, the
    last staffed and the last failed answer with the actors read idle and
    busy, and replays one while the first are all idle and the second all
    busy. A replay returns the answer object itself, so its ``team`` and
    ``spanned_socs`` are sorted once, when the answer is first built, on
    the first-fit path and the matching path alike. The caller empties the
    memo when a registry gets a topic it did not hold, and when the chain
    from a start SoC it uses, or the actors under a SoC on that chain,
    change.
    """
    # the registries are keyed by exactly the scenario's SoCs
    if start_soc not in h.registries:
        raise CanonError(f"cannot resolve from {start_soc}, which is not a SoC of the scenario")

    idle = state.inactive
    if memo is not None:
        pair = (activity.id, start_soc)
        for answer, were_idle, were_busy in memo.get(pair, {}).values():
            if idle.isdisjoint(were_busy) and idle.issuperset(were_idle):
                return answer
    parent = h.parent
    atoms_by_role = h.atoms_by_role
    slots = activity.required_roles
    s = len(slots)
    hops: list[HopRecord] = []
    data: set[str] = set()
    read: list[HolonId] = []  # the actors the scans read idle
    busy: list[HolonId] = []  # the actors they read busy
    soc = start_soc
    while True:
        by_role = atoms_by_role(soc)
        if activity.required_data:
            data |= h.registries[soc].topics
        # first fit: each slot takes its role's first idle actor no earlier
        # slot holds; slots of one role are adjacent and share one scan
        read_before, busy_before = len(read), len(busy)
        actors: list[HolonId] = []
        uncovered: list[int] = []
        held = False
        role = None
        for slot in slots:
            if slot != role:
                role = slot
                atoms = iter(by_role.get(role, ()))
                seen_idle = False
            for a in atoms:
                if a in idle:
                    seen_idle = True
                    if a not in actors:
                        actors.append(a)
                        read.append(a)
                        break
                else:
                    busy.append(a)
            else:
                if seen_idle:
                    # every idle actor of the role is held: an augmenting
                    # path may free one, so the matching decides the hop
                    held = True
                    break
                uncovered.append(role)
        if held:
            del read[read_before:], busy[busy_before:]
            pool: Pool = {}
            for role in dict.fromkeys(slots):
                best = pool[role] = []
                for a in by_role.get(role, ()):
                    if a in idle:
                        best.append(a)
                        if len(best) == s:
                            break
                    else:
                        busy.append(a)
                read += best
            missing, assignment = _solve(activity, pool, data)
        else:
            if activity.required_data:
                uncovered += [DATA_MISSING] * len(activity.required_data - data)
            missing = tuple(uncovered)
            assignment = () if missing else tuple(zip(actors, slots))
        up = parent.get(soc)
        if not missing or up is None:
            break
        hops.append(HopRecord(soc, up, len(hops) + 1, missing))
        soc = up
    team = tuple(sorted(map(_ACTOR, assignment))) if assignment else ()
    spanned = {start_soc} if team else set()
    for a in team:
        spanned.add(parent[a])
    answer = Staffing(tuple(hops), missing, assignment, team, soc, tuple(sorted(spanned)))
    if memo is not None:
        memo.setdefault(pair, {})[not missing] = (answer, read, busy)
    return answer


# -- overlay lifecycle -------------------------------------------------------


def form_son(
    activity: ResponseActivity,
    answer: Staffing,
    son_id: int,
    t: LogicalTime,
    state: ActivationState,
    h: Holarchy,
) -> Son:
    """Enroll the members a staffed ``answer`` assigns and open the overlay
    for ``activity``, carrying the answer's ``team`` along.

    Raises CanonError, enrolling nobody, when some assigned actor is busy
    by now; the caller should re-resolve instead of forcing the assignment.
    When an enrollment raises, ActivationError for an actor that cannot
    play its role or that the assignment repeats and HolarchyError for a
    holon that is no actor, the members already enrolled are released and
    the error is raised again, so a call that raises leaves the state as it
    found it.
    """
    assignment = answer.assignment
    for a, _ in assignment:
        if a in state.active:
            raise CanonError(f"actor {a} became busy before SON {son_id} formed")
    try:
        for a, role in assignment:
            enroll(state, h, a, role, son_id)
    except (ActivationError, HolarchyError):
        # no assigned actor was busy before this call, so each busy one now
        # was enrolled by it
        for a, _ in assignment:
            if a in state.active:
                release(state, a)
        raise
    return Son(son_id, activity.id, assignment, answer.team, t + activity.duration)


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
