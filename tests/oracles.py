"""Independent oracle implementations used to cross-check the simulator.

Everything here recomputes results from first principles: parent links are
re-derived from raw member lists, the activation space is counted by
explicit enumeration, and request resolution is settled by exhaustive
search over all injective role assignments. None of it calls the library's
own search or counting code.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable

from fso_sim.activation import ActivationState
from fso_sim.canon import ResponseActivity
from fso_sim.engine import TRACE_FIELDS, TRACE_KINDS, MalformedTraceError, Metrics, TraceRecord
from fso_sim.holarchy import Holarchy, Holon, HolonId, HolonKind, RoleId, ServiceEntry

DATA_GAP = -1


# -- random streams, one call per step ---------------------------------------

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Rng:
    """A splitmix64 stream with a method per step, the reference for the simulator's inlined draws."""

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def random(self) -> float:
        # 53 bit mantissa, uniform in [0, 1)
        return (self.next_u64() >> 11) * 2.0**-53

    def child(self, index: int) -> "Rng":
        """An independent stream derived from this rng's seed, not its state."""
        return Rng(_mix((self.seed + (index + 1) * _GOLDEN) & _MASK))


# -- structure, recomputed from member lists --------------------------------


def parent_scan(h: Holarchy) -> dict[HolonId, HolonId]:
    """Primary parent map recomputed from raw member lists.

    A membership edge is primary when the containing SoC came from the
    scenario; promoted overlays hold their members secondarily.
    """
    parents: dict[HolonId, HolonId] = {}
    for i, node in h.holons.items():
        if node.kind is HolonKind.COMPOSITE and node.origin.value == "scenario":
            for m in node.members:
                parents[m] = i
    return parents


def chain_up(h: Holarchy, start: HolonId) -> list[HolonId]:
    """start and its ancestors, walking raw primary membership."""
    direct: dict[HolonId, HolonId] = {}
    for i, node in h.holons.items():
        if node.kind is HolonKind.COMPOSITE and node.origin.value == "scenario":
            for m in node.members:
                direct[m] = i
    chain = [start]
    while chain[-1] in direct:
        chain.append(direct[chain[-1]])
    return chain


def atoms_under(h: Holarchy, top: HolonId) -> set[HolonId]:
    out: set[HolonId] = set()
    frontier = [top]
    while frontier:
        node = h.holons[frontier.pop()]
        if node.kind is HolonKind.ATOMIC:
            out.add(node.id)
        else:
            frontier.extend(node.members)
    return out


def initial_offers(h: Holarchy, soc: HolonId) -> list[ServiceEntry]:
    """The service entries initial registration gives ``soc``, by definition.

    An actor member offers each of its capabilities; a composite member
    offers, through its representative, every capability of an actor
    anywhere under it. Entries come in canonical order.
    """
    out = []
    for m in h.holons[soc].members:
        node = h.holons[m]
        if node.kind is HolonKind.ATOMIC:
            out += [ServiceEntry(m, r) for r in node.capabilities]
        else:
            roles = {r for a in atoms_under(h, m) for r in h.holons[a].capabilities}
            out += [ServiceEntry(node.representative, r, via=m) for r in roles]
    return sorted(out, key=lambda e: (e.provider, e.role))


def count_activation_states(h: Holarchy) -> int:
    """Count role-assignment states by explicitly enumerating all of them."""
    atoms = sorted(a for a, n in h.holons.items() if n.kind is HolonKind.ATOMIC)
    choice_sets = [[None] + sorted(h.holons[a].capabilities) for a in atoms]
    return sum(1 for _ in itertools.product(*choice_sets))


def structural_check(h: Holarchy) -> list[str]:
    """A small independent validator: tree shape and representatives."""
    problems = []
    parent_count: dict[HolonId, int] = {i: 0 for i in h.holons}
    for i, node in h.holons.items():
        if node.kind is HolonKind.COMPOSITE:
            for m in node.members:
                if m not in h.holons:
                    problems.append(f"{i} lists missing member {m}")
                elif node.origin.value == "scenario":
                    parent_count[m] += 1
            if node.representative not in node.members:
                problems.append(f"{i} has an outside representative")
    roots = [i for i, c in parent_count.items() if c == 0]
    if len(roots) != 1:
        problems.append(f"roots: {sorted(roots)}")
    over = [i for i, c in parent_count.items() if c > 1]
    if over:
        problems.append(f"multiple parents: {over}")
    return problems


def spec_problems(holons: tuple[Holon, ...], roles: frozenset[RoleId]) -> list[str]:
    """Every structural fault of a holon list over a role table, from their raw fields alone.

    A holon list is sound when its ids are unique and non-negative, actors carry
    only declared roles and no members or representative, communities carry
    members but no capabilities, every member is declared, each community's
    representative is one of its members, every holon sits in at most one member
    list, and exactly one holon, a community, sits in none and reaches all
    the others through member lists.
    """
    problems = []
    ids = [hs.id for hs in holons]
    problems += [f"id {i} declared {ids.count(i)} times" for i in sorted(set(ids)) if ids.count(i) > 1]
    problems += [f"id {i} is negative" for i in sorted(set(ids)) if i < 0]
    declared = set(ids)
    listings = [m for hs in holons if hs.kind.value == "composite" for m in hs.members]
    for hs in holons:
        if hs.kind.value == "atomic":
            if hs.members or hs.representative is not None:
                problems.append(f"actor {hs.id} has members or a representative")
            problems += [f"actor {hs.id} claims role {r}" for r in hs.capabilities if r not in roles]
        else:
            if hs.capabilities or not hs.members:
                problems.append(f"community {hs.id} has capabilities or no members")
            problems += [f"community {hs.id} lists undeclared {m}" for m in hs.members if m not in declared]
            if hs.representative not in hs.members:
                problems.append(f"community {hs.id} is represented by outsider {hs.representative}")
    problems += [f"{i} listed {listings.count(i)} times" for i in sorted(declared) if listings.count(i) > 1]
    tops = sorted(declared - set(listings))
    if len(tops) != 1:
        return problems + [f"tops: {tops}"]
    by_id = {hs.id: hs for hs in holons}
    if by_id[tops[0]].kind.value != "composite":
        problems.append(f"top {tops[0]} is an actor")
    reached = {tops[0]}
    frontier = [tops[0]]
    while frontier:
        hs = by_id[frontier.pop()]
        fresh = [m for m in hs.members if m in declared and m not in reached] if hs.kind.value == "composite" else []
        reached.update(fresh)
        frontier += fresh
    if reached != declared:
        problems.append(f"unreached: {sorted(declared - reached)}")
    return problems


# -- exhaustive request resolution -------------------------------------------


def _injective_assignments(cands: list[list[HolonId]]):
    for combo in itertools.product(*cands):
        if len(set(combo)) == len(combo):
            yield combo


def _has_injective(cands: list[list[HolonId]]) -> bool:
    return next(_injective_assignments(cands), None) is not None


def oracle_resolve(
    activity: ResponseActivity,
    start_soc: HolonId,
    h: Holarchy,
    state: ActivationState,
) -> dict[str, Any]:
    """Settle a staffing request by brute force.

    Walks the ancestor chain; at hop k the pool is every idle actor under
    the k-th ancestor that can play the role, and data published anywhere
    on the visited chain counts. Among all injective assignments the
    smallest tuple of actor ids (slot by slot, roles sorted) wins.
    """
    chain = chain_up(h, start_soc)
    slots = tuple(sorted(activity.required_roles))
    last_missing: tuple[int, ...] = ()
    for k, soc in enumerate(chain):
        pool_atoms = {a for a in atoms_under(h, soc) if a in state.inactive}
        cands = [sorted(a for a in pool_atoms if r in h.holons[a].capabilities) for r in slots]
        topics: set[str] = set()
        for visited in chain[: k + 1]:
            topics |= {item.topic for item in h.registries[visited].info_entries}
        missing_data = sorted(activity.required_data - topics)

        covered: list[list[HolonId]] = []
        missing_roles: list[int] = []
        for i, role in enumerate(slots):
            if _has_injective(covered + [cands[i]]):
                covered.append(cands[i])
            else:
                missing_roles.append(role)
        last_missing = tuple(missing_roles) + (DATA_GAP,) * len(missing_data)

        if not missing_roles and not missing_data:
            best = min(_injective_assignments(cands))
            return {
                "kind": "plan",
                "hop_count": k,
                "resolved_soc": soc,
                "assignment": tuple(zip(best, slots)),
            }
    return {
        "kind": "unresolved",
        "hop_count": len(chain) - 1,
        "missing": last_missing,
    }


def full_pool_resolve(
    activity: ResponseActivity,
    start_soc: HolonId,
    h: Holarchy,
    state: ActivationState,
) -> dict[str, Any]:
    """Settle a staffing request from every registry entry on the chain.

    Unlike :func:`oracle_resolve` and the solver, which read the actors
    under each SoC, this is the one resolver that reads the registries'
    entries, unfolded to actors: at hop k the pool holds every idle actor
    that some entry of the first k + 1 registries offers for a slot's role,
    in id order, with nothing cut off. A direct entry counts when its
    provider is an actor holding the role; a punctualized entry stands for
    the capable actors under the member it was registered via. Missing
    slots come from the greedy rule (keep a slot while the kept ones still
    have an injective assignment), and the assignment is the first
    injective tuple of the product of the full ranked lists.
    """
    chain = chain_up(h, start_soc)
    slots = tuple(sorted(activity.required_roles))
    offered: set[tuple[RoleId, HolonId]] = set()
    last_missing: tuple[int, ...] = ()
    for k, soc in enumerate(chain):
        for entry in h.registries[soc].service_entries:
            if entry.role not in slots:
                continue
            if entry.via is None:
                node = h.holons.get(entry.provider)
                if node is None or node.kind is not HolonKind.ATOMIC or entry.role not in node.capabilities:
                    continue
                actors = {entry.provider}
            else:
                actors = {a for a in atoms_under(h, entry.via) if entry.role in h.holons[a].capabilities}
            offered.update((entry.role, a) for a in actors)
        cands = [sorted(a for r, a in offered if r == role and a in state.inactive) for role in slots]
        topics: set[str] = set()
        for visited in chain[: k + 1]:
            topics |= {item.topic for item in h.registries[visited].info_entries}
        missing_data = sorted(activity.required_data - topics)

        covered: list[list[HolonId]] = []
        missing_roles: list[int] = []
        for i, role in enumerate(slots):
            if _has_injective(covered + [cands[i]]):
                covered.append(cands[i])
            else:
                missing_roles.append(role)
        last_missing = tuple(missing_roles) + (DATA_GAP,) * len(missing_data)

        if not missing_roles and not missing_data:
            first = next(_injective_assignments(cands))
            return {
                "kind": "plan",
                "hop_count": k,
                "resolved_soc": soc,
                "assignment": tuple(zip(first, slots)),
            }
    return {
        "kind": "unresolved",
        "hop_count": len(chain) - 1,
        "missing": last_missing,
    }


# -- the pool-level solver -----------------------------------------------------


def brute_force_solve(
    activity: ResponseActivity,
    pool: dict[RoleId, list[HolonId]],
    available_data: set[str],
) -> tuple[tuple[int, ...], tuple[tuple[HolonId, RoleId], ...]]:
    """Staff the slots from each role's ranked list of actors.

    Returns ``(missing, assignment)``, one of them empty. A slot is missing
    when the kept slots plus it have no injective assignment; the plan is
    the first injective tuple of the product of the ranked lists, which is
    the least by rank, slot by slot.
    """
    slots = activity.required_roles
    cands = [pool[role] for role in slots]
    covered: list[list[HolonId]] = []
    missing: list[int] = []
    for i, role in enumerate(slots):
        if _has_injective(covered + [cands[i]]):
            covered.append(cands[i])
        else:
            missing.append(role)
    missing += [DATA_GAP] * len(activity.required_data - available_data)
    if missing:
        return tuple(missing), ()
    return (), tuple(zip(next(_injective_assignments(cands)), slots))


# -- trace level checks -------------------------------------------------------


def first_difference(a: list[str], b: list[str]) -> tuple[int, str | None, str | None] | None:
    """The first record where two traces differ: its index and both lines.

    A trace that ends first gives None for its line. Equal traces give None.
    """
    for i, (x, y) in enumerate(itertools.zip_longest(a, b)):
        if x != y:
            return i, x, y
    return None


# the payload keys whose values name holons: a SoC, a parent, a list of
# SoCs, or ``members``, which lists ids or, on an overlay's records,
# ``[actor, role]`` pairs
HOLON_ID_KEYS = frozenset(
    {"soc", "from_soc", "to_soc", "origin_soc", "resolved_soc", "parent", "spanned_socs", "members"}
)
# kind -> its holon id keys, in payload order
HOLON_ID_FIELDS = {kind: tuple(k for k in keys if k in HOLON_ID_KEYS) for kind, keys in TRACE_FIELDS.items()}


def shift_holon_ids(record: TraceRecord, delta: int) -> TraceRecord:
    """``record`` with every holon id in its payload moved by ``delta``."""
    payload = dict(record.payload)
    for key in HOLON_ID_FIELDS[record.kind]:
        value = payload[key]
        if isinstance(value, int):
            payload[key] = value + delta
        else:
            payload[key] = [v + delta if isinstance(v, int) else [v[0] + delta, v[1]] for v in value]
    return TraceRecord(record.tick, record.kind, payload)


def replay_partition(records: list[Any], atom_count: int) -> list[str]:
    """Re-derive the latent/responding split from the trace alone.

    Checks that every size annotation matches the replay, that SONs only
    enroll idle actors, and that dissolution releases exactly the actors
    the formation enrolled.
    """
    problems = []
    active: dict[int, tuple[int, int]] = {}
    open_sons: dict[int, Any] = {}
    for r in records:
        if r.kind == "SonFormed":
            son = r.payload["son"]
            for a, role in r.payload["members"]:
                if a in active:
                    problems.append(f"t={r.tick} SON {son} enrolls busy actor {a}")
                active[a] = (role, son)
            open_sons[son] = r.payload["members"]
            if r.payload["r_size"] != len(active) or r.payload["l_size"] != atom_count - len(active):
                problems.append(f"t={r.tick} SON {son} sizes disagree with replay")
        elif r.kind == "SonDissolved":
            son = r.payload["son"]
            if son not in open_sons:
                problems.append(f"t={r.tick} SON {son} dissolved but never formed")
                continue
            for a, role in r.payload["members"]:
                if active.get(a) != (role, son):
                    problems.append(f"t={r.tick} SON {son} releases actor {a} with wrong binding")
                active.pop(a, None)
            del open_sons[son]
            if r.payload["r_size"] != len(active) or r.payload["l_size"] != atom_count - len(active):
                problems.append(f"t={r.tick} SON {son} sizes disagree with replay")
    for son in open_sons:
        problems.append(f"SON {son} never dissolved")
    return problems


def son_lifecycle_check(records: list[Any]) -> list[str]:
    """Every formation pairs with exactly one on-time dissolution."""
    problems = []
    formed: dict[int, Any] = {}
    dissolved: dict[int, int] = {}
    for r in records:
        if r.kind == "SonFormed":
            if r.payload["son"] in formed:
                problems.append(f"SON {r.payload['son']} formed twice")
            formed[r.payload["son"]] = r
        elif r.kind == "SonDissolved":
            son = r.payload["son"]
            dissolved[son] = dissolved.get(son, 0) + 1
            if son in formed:
                f = formed[son]
                if r.tick != f.payload["dissolves_at"]:
                    problems.append(f"SON {son} dissolved at {r.tick}, scheduled {f.payload['dissolves_at']}")
                if r.payload["members"] != f.payload["members"]:
                    problems.append(f"SON {son} member lists differ between formation and dissolution")
            else:
                problems.append(f"SON {son} dissolved before forming")
    for son in formed:
        if dissolved.get(son, 0) != 1:
            problems.append(f"SON {son} has {dissolved.get(son, 0)} dissolutions")
    return problems


def request_outcome_check(records: list[Any], retry_bound: int, depth: int) -> list[str]:
    """Each trigger ends in exactly one of: formation, or a final give-up.

    Attempts stay within the retry bound and escalation chains never exceed
    the holarchy depth.
    """
    problems = []
    triggered: set[int] = set()
    formed: set[int] = set()
    finals: dict[int, int] = {}
    attempts: dict[int, int] = {}
    for r in records:
        p = r.payload
        if r.kind == "ActivityTriggered":
            triggered.add(p["request"])
        elif r.kind == "SonFormed":
            formed.add(p["request"])
        elif r.kind == "RequestUnresolved":
            if p["final"]:
                finals[p["request"]] = finals.get(p["request"], 0) + 1
            attempts[p["request"]] = max(attempts.get(p["request"], 0), p["attempt"])
            if p["attempt"] > retry_bound:
                problems.append(f"request {p['request']} attempt {p['attempt']} exceeds bound {retry_bound}")
        elif r.kind == "ExceptionRaised":
            if p["hop"] > depth:
                problems.append(f"request {p['request']} hop {p['hop']} exceeds depth {depth}")
    for req in triggered:
        is_formed = req in formed
        is_final = finals.get(req, 0) > 0
        if is_formed and is_final:
            problems.append(f"request {req} both resolved and finally unresolved")
        if not is_formed and not is_final:
            problems.append(f"request {req} never terminated")
        if finals.get(req, 0) > 1:
            problems.append(f"request {req} has {finals[req]} final records")
    return problems


def request_attempt_check(records: list[Any], retry_bound: int) -> list[str]:
    """Each request is attempted on its trigger tick, then at most once a tick.

    A request's attempts are its ``RequestUnresolved`` records, which must
    number them 0, 1, 2, ..., then its ``SonFormed`` if one comes. The first
    falls on the trigger tick and each later one on a later tick than the
    one before. A request still parked when the run ends gets one more
    ``final`` record below the retry bound; it repeats the last attempt's
    number, comes after it, and is not an attempt.
    """
    problems = []
    triggered_at: dict[int, int] = {}
    attempts: dict[int, list[int]] = {}  # request -> the tick of each attempt
    for r in records:
        p = r.payload
        if r.kind == "ActivityTriggered":
            triggered_at[p["request"]] = r.tick
            attempts[p["request"]] = []
        elif r.kind in ("RequestUnresolved", "SonFormed"):
            req = p["request"]
            ticks = attempts[req]
            if r.kind == "RequestUnresolved" and p["final"] and p["attempt"] < retry_bound:
                if p["attempt"] != len(ticks) - 1 or r.tick <= ticks[-1]:
                    problems.append(f"request {req} closed as attempt {p['attempt']} on tick {r.tick} after {ticks}")
                continue
            if r.kind == "RequestUnresolved" and p["attempt"] != len(ticks):
                problems.append(f"request {req} numbered its attempt {len(ticks)} as {p['attempt']}")
            if not ticks and r.tick != triggered_at[req]:
                problems.append(f"request {req} triggered on tick {triggered_at[req]} first attempted on {r.tick}")
            if ticks and r.tick <= ticks[-1]:
                problems.append(f"request {req} attempted on tick {r.tick} after an attempt on tick {ticks[-1]}")
            ticks.append(r.tick)
    return problems


def fold_metrics(records: list[Any]) -> dict[str, Any]:
    """Independent metrics fold over parsed trace records."""
    events = sons = unresolved = promoted = pruned = 0
    hops: list[int] = []
    latencies: list[int] = []
    sizes = None
    for r in records:
        if r.kind == "EventPublished":
            events += 1
        elif r.kind == "SonFormed":
            sons += 1
            hops.append(r.payload["hop_count"])
            latencies.append(r.tick - r.payload["triggered_at"])
            sizes = (r.payload["l_size"], r.payload["r_size"])
        elif r.kind == "SonDissolved":
            sizes = (r.payload["l_size"], r.payload["r_size"])
        elif r.kind == "RequestUnresolved" and r.payload["final"]:
            unresolved += 1
        elif r.kind == "Permanentified":
            promoted += 1
        elif r.kind == "Pruned":
            pruned += 1
    return {
        "events_published": events,
        "sons_formed": sons,
        "mean_hop_count": sum(hops) / len(hops) if hops else 0.0,
        "mean_response_latency": sum(latencies) / len(latencies) if latencies else 0.0,
        "unresolved_requests": unresolved,
        "permanentifications": promoted,
        "prunings": pruned,
        "final_partition_sizes": {"L": sizes[0], "R": sizes[1]} if sizes else {"L": 0, "R": 0},
    }


# -- the metrics fold before its one-pass rewrite ----------------------------


def _non_integer(r: TraceRecord, key: str) -> MalformedTraceError:
    return MalformedTraceError(f"{r.kind} record has non-integer {key} {r.payload[key]!r}")


def reference_report(records: Iterable[TraceRecord]) -> Metrics:
    """The metrics fold as one ``if``/``elif`` chain over attribute increments.

    An earlier :func:`fso_sim.engine.report`, kept word for word: ``report``,
    which checks each record and folds it with the fold of a run's own rows,
    must return the same metrics, or raise the same error, on any trace.
    """
    m = Metrics()
    hop_sum = 0
    latency_sum = 0
    last_sizes: tuple[int, int] | None = None
    for r in records:
        if r.kind not in TRACE_KINDS:
            raise MalformedTraceError(f"unknown kind {r.kind!r}")
        p = r.payload
        try:
            if r.kind == "EventPublished":
                m.events_published += 1
            elif r.kind in ("SonFormed", "SonDissolved"):
                # checked inline, field by field, in this order: True and
                # False are not counts
                if r.kind == "SonFormed":
                    m.sons_formed += 1
                    if type(p["hop_count"]) is not int:
                        raise _non_integer(r, "hop_count")
                    hop_sum += p["hop_count"]
                    if type(p["triggered_at"]) is not int:
                        raise _non_integer(r, "triggered_at")
                    latency_sum += r.tick - p["triggered_at"]
                if type(p["l_size"]) is not int:
                    raise _non_integer(r, "l_size")
                if type(p["r_size"]) is not int:
                    raise _non_integer(r, "r_size")
                last_sizes = (p["l_size"], p["r_size"])
            elif r.kind == "RequestUnresolved":
                if not isinstance(p["final"], bool):
                    raise MalformedTraceError(f"{r.kind} record has non-boolean final {p['final']!r}")
                m.unresolved_requests += p["final"]
            elif r.kind == "Permanentified":
                m.permanentifications += 1
            elif r.kind == "Pruned":
                m.prunings += 1
        except KeyError as exc:
            raise MalformedTraceError(f"{r.kind} record lacks key {exc}") from None
    try:
        if m.sons_formed:
            m.mean_hop_count = hop_sum / m.sons_formed
            m.mean_response_latency = latency_sum / m.sons_formed
    except OverflowError:
        raise MalformedTraceError("a mean hop count or latency does not fit a float") from None
    if last_sizes is not None:
        m.final_partition_sizes = last_sizes
    return m
