"""Structure: building, validating, and querying the holon tree."""

from __future__ import annotations

import random

import pytest

from fso_sim.engine import scenario_from_dict
from fso_sim.holarchy import (
    Holarchy,
    Holon,
    HolarchyError,
    HolonKind,
    Registry,
    ServiceEntry,
    ViolationError,
    build_holarchy,
    register_initial_services,
    validate,
)

from generators import random_scenario_dict
from oracles import initial_offers, parent_scan, spec_problems, structural_check


def atom(i, *caps):
    return Holon(id=i, kind=HolonKind.ATOMIC, capabilities=frozenset(caps))


def soc(i, members, rep=None):
    members = tuple(members)
    return Holon(id=i, kind=HolonKind.COMPOSITE, members=members, representative=min(members) if rep is None else rep)


def _holons_of(holons):
    """The holons the scenario loader makes of these holarchy entries."""
    return tuple(
        Holon(
            h["id"],
            HolonKind(h["kind"]),
            frozenset(h.get("capabilities", ())),
            tuple(h.get("members", ())),
            h.get("representative", min(h.get("members", ()), default=None)),
        )
        for h in holons
    )


def roles(n):
    return frozenset(range(n))


def rejection(holons, roles):
    """The code of the violation ``build_holarchy`` raises for ``holons`` over ``roles``."""
    with pytest.raises(ViolationError) as err:
        build_holarchy(holons, roles)
    assert str(err.value) == err.value.violation.detail
    return err.value.violation.code


@pytest.fixture
def nested():
    # every SoC has a lower id than its members, so id order is not an
    # order in which registries can be filled leaves first
    holons = (
        soc(0, [1, 2]),
        soc(1, [3, 4], rep=4),
        soc(2, [5, 6]),
        atom(3, 0),
        atom(4, 1),
        atom(5, 0, 2),
        atom(6, 2),
    )
    return build_holarchy(holons, roles(3))


def test_build_assigns_parents_and_root(nested):
    assert nested.root == 0
    assert nested.parent == {3: 1, 4: 1, 5: 2, 6: 2, 1: 0, 2: 0}
    assert parent_scan(nested) == nested.parent


def test_representative_defaults_to_lowest_member():
    # the scenario format leaves it optional; build_holarchy takes holons as given
    doc = random_scenario_dict(3)
    for h in doc["holarchy"]:
        h.pop("representative", None)
    socs = [n for n in scenario_from_dict(doc).holons if n.is_composite]
    assert socs and all(n.representative == min(n.members) for n in socs)


def test_subtree_and_capabilities(nested):
    assert nested.subtree_atoms(0) == frozenset({3, 4, 5, 6})
    assert nested.subtree_atoms(2) == frozenset({5, 6})
    assert nested.subtree_atoms(3) == frozenset({3})


def test_chain_to_root(nested):
    assert nested.chain_to_root(1) == (1, 0)
    assert nested.chain_to_root(3) == (3, 1, 0)
    assert nested.chain_to_root(0) == (0,)
    with pytest.raises(HolarchyError, match="holon 99 does not exist"):
        nested.chain_to_root(99)


def test_duplicate_id_rejected():
    assert rejection((atom(0, 0), atom(0, 0), soc(1, [0])), frozenset({0})) == "DuplicateId"


def test_shared_member_rejected():
    assert rejection((atom(0, 0), soc(1, [0]), soc(2, [0, 1])), frozenset({0})) == "MultipleParents"


def test_membership_cycle_rejected():
    assert rejection((soc(0, [1]), soc(1, [0])), frozenset()) == "RootCount"


def test_two_roots_rejected():
    assert rejection((atom(0, 0), atom(1, 0), soc(2, [0]), soc(3, [1])), frozenset({0})) == "RootCount"


def test_unknown_member_rejected():
    assert rejection((atom(0, 0), soc(1, [0, 7])), frozenset({0})) == "UnknownMember"


def test_outside_representative_rejected():
    holons = (atom(0, 0), atom(1, 0), soc(2, [0, 1], rep=1), soc(3, [2], rep=1))
    assert rejection(holons, frozenset({0})) == "RepresentativeNotMember"


def test_undeclared_role_rejected():
    assert rejection((atom(0, 5), soc(1, [0])), frozenset({0})) == "UnknownRole"


def test_malformed_holons_rejected():
    assert rejection((Holon(0, HolonKind.ATOMIC, members=(1,)),), frozenset()) == "AtomicWithMembers"
    assert rejection((atom(0, 0), Holon(1, HolonKind.COMPOSITE)), frozenset({0})) == "EmptyComposite"
    # an atomic root is not a community
    assert rejection((atom(0, 0),), frozenset({0})) == "AtomicRoot"


def test_validate_reports_an_atomic_root_and_a_negative_id():
    lone = Holarchy({0: Holon(0, HolonKind.ATOMIC, frozenset({0}))}, {}, 0, frozenset({0}), {})
    assert [v.code for v in validate(lone)] == ["AtomicRoot"]
    negative = Holarchy(
        {-1: Holon(-1, HolonKind.ATOMIC, frozenset({0})), 1: Holon(1, HolonKind.COMPOSITE, members=(-1,), representative=-1)},
        {-1: 1},
        1,
        frozenset({0}),
        {1: Registry()},
    )
    assert [v.code for v in validate(negative)] == ["NegativeId"]
    assert rejection((atom(0, 0),), frozenset({0})) == "AtomicRoot"
    assert rejection((atom(-1, 0), soc(1, [-1])), frozenset({0})) == "NegativeId"


def test_validate_reports_a_parent_map_the_member_lists_disagree_with(nested):
    del nested.parent[3]
    nested.parent[4] = 2
    assert [(v.code, v.holon) for v in validate(nested)] == [("ParentMapInconsistent", 3), ("ParentMapInconsistent", 4)]


def _mutate(holons, n_roles, rng):
    """Break (or, now and then, harmlessly edit) one thing in a holarchy list."""
    atoms = [h for h in holons if h["kind"] == "atomic"]
    socs = [h for h in holons if h["kind"] == "composite"]
    if not socs:
        return
    ids = [h["id"] for h in holons]
    target = rng.choice(socs)
    edit = rng.choice(["duplicate member", "unknown member", "empty", "outside representative", "undeclared role",
                       "duplicate id", "negative id", "atomic root", "cycle", "actor with members",
                       "actor with representative", "community with capabilities", "inside representative"])
    if edit == "duplicate member":
        target["members"].append(rng.choice(ids))
    elif edit == "unknown member":
        target["members"].append(max(ids) + rng.randint(1, 3))
    elif edit == "empty":
        target["members"] = []
    elif edit == "outside representative":
        target["representative"] = rng.choice([i for i in ids + [max(ids) + 1] if i not in target["members"]])
    elif edit == "undeclared role":
        rng.choice(atoms)["capabilities"].append(n_roles + rng.randint(0, 2))
    elif edit == "duplicate id":
        rng.choice(holons)["id"] = rng.choice(ids)
    elif edit == "negative id":
        # renumbered everywhere, so a negative id is the only fault it adds
        old = rng.choice(ids)
        for h in holons:
            h["id"] = -1 - old if h["id"] == old else h["id"]
            if "members" in h:
                h["members"] = [-1 - old if m == old else m for m in h["members"]]
            if h.get("representative") == old:
                h["representative"] = -1 - old
    elif edit == "cycle":
        # the target hangs under itself only, cut off from the root
        for h in socs:
            h["members"] = [m for m in h["members"] if m != target["id"]]
        target["members"].append(target["id"])
    elif edit == "actor with members":
        rng.choice(atoms)["members"] = [rng.choice(ids)]
    elif edit == "actor with representative":
        rng.choice(atoms)["representative"] = rng.choice(ids)
    elif edit == "community with capabilities":
        target["capabilities"] = [0]
    elif edit == "inside representative":
        target["representative"] = rng.choice(target["members"] or [0])
    else:
        holons[:] = [rng.choice(atoms)]


def test_build_raises_exactly_on_the_specs_the_oracle_faults():
    built = rejected = 0
    for seed in range(400):
        rng = random.Random(seed)
        doc = random_scenario_dict(seed)
        n_roles = len(doc["roles"])
        holons = doc["holarchy"]
        for _ in range(rng.choice([0, 1, 1, 2])):
            _mutate(holons, n_roles, rng)
        nodes = _holons_of(holons)
        problems = spec_problems(nodes, roles(n_roles))
        if problems:
            with pytest.raises(ViolationError):
                build_holarchy(nodes, roles(n_roles))
            rejected += 1
        else:
            h = build_holarchy(nodes, roles(n_roles))
            assert validate(h) == [] and structural_check(h) == []
            built += 1
    assert built > 50 and rejected > 150


def test_validate_clean_after_build(nested):
    register_initial_services(nested)
    assert validate(nested) == []
    assert structural_check(nested) == []


def test_validate_reports_corruption(nested):
    register_initial_services(nested)
    # smuggle in an out of order registry and a foreign provider
    reg = nested.registries[1]
    reg.service_entries = list(reversed(reg.service_entries))
    reg.service_entries.append(ServiceEntry(provider=6, role=0))
    codes = {v.code for v in validate(nested)}
    assert "RegistryOrder" in codes
    assert "ProviderNotMember" in codes


def test_registration_punctualizes_composites(nested):
    register_initial_services(nested)
    top = nested.registries[0].service_entries
    # SoC 1 appears through representative 4 for roles 0 and 1,
    # SoC 2 through representative 5 for roles 0 and 2
    assert {(e.provider, e.role, e.via) for e in top} == {
        (4, 0, 1),
        (4, 1, 1),
        (5, 0, 2),
        (5, 2, 2),
    }
    ground = nested.registries[1].service_entries
    assert {(e.provider, e.role, e.via) for e in ground} == {(3, 0, None), (4, 1, None)}
    for s in nested.composites():
        assert nested.registries[s].service_entries == initial_offers(nested, s)


def _top_down(holons):
    """The same holarchy renumbered so that every SoC has a lower id than its members."""
    last = max(h["id"] for h in holons)
    out = []
    for h in holons:
        h = dict(h, id=last - h["id"])
        if "members" in h:
            h["members"] = [last - m for m in h["members"]]
        if h.get("representative") is not None:
            h["representative"] = last - h["representative"]
        out.append(h)
    return out


@pytest.mark.parametrize("seed", range(12))
def test_registration_does_not_depend_on_id_order(seed):
    doc = random_scenario_dict(seed)
    for holons in (doc["holarchy"], _top_down(doc["holarchy"])):
        h = build_holarchy(_holons_of(holons), roles(len(doc["roles"])))
        register_initial_services(h)
        for s in h.composites():
            assert h.registries[s].service_entries == initial_offers(h, s), (seed, s)
    # the renumbered holarchy really is numbered top-down
    assert all(m > s for s in h.composites() for m in h.holons[s].members)


def test_validate_reports_a_composite_member_missing_from_its_registry():
    # SoC 1 holds a capable actor two levels down; SoC 2 holds only an
    # actor with no capability, so it has nothing to offer the root
    h = build_holarchy(
        (soc(0, [1, 2, 8]), soc(1, [3]), soc(2, [5]), soc(3, [6]), soc(5, [7]), atom(6, 0), atom(7), atom(8, 1)),
        roles(2),
    )
    register_initial_services(h)
    assert validate(h) == []
    assert {e.via for e in h.registries[0].service_entries} == {None, 1}
    reg = h.registries[0]
    reg.service_entries = [e for e in reg.service_entries if e.via != 1]
    assert [(v.code, v.holon) for v in validate(h)] == [("RepresentativeNotRegistered", 0)]


def test_validate_reports_a_promoted_team_missing_from_its_anchor(nested):
    register_initial_services(nested)
    team = nested.graft((5, 6), 0)
    assert validate(nested) == []
    reg = nested.registries[0]
    reg.service_entries = [e for e in reg.service_entries if e.via != team]
    assert [(v.code, v.holon) for v in validate(nested)] == [("RepresentativeNotRegistered", 0)]


def test_ranked_offers_follow_every_registry_writer(nested):
    assert nested.ranked_offers(0, 0) == ()
    register_initial_services(nested)
    assert nested.ranked_offers(0, 0) == (3, 5)
    assert nested.ranked_offers(1, 0) == (3,)

    # the anchor already offers a team's members, so its views keep their actors
    assert nested.graft((5, 6), 0) == 7
    assert nested.ranked_offers(0, 0) == (3, 5)
    assert nested.ranked_offers(7, 0) == (5,)
    assert nested.ranked_offers(7, 2) == (5, 6)

    assert nested.remove(7) == 0
    assert nested.ranked_offers(0, 0) == (3, 5)

    # the freed id comes back for a different team
    assert nested.graft((3, 4), 0) == 7
    assert nested.ranked_offers(7, 0) == (3,)
    assert nested.ranked_offers(7, 2) == ()

    # a retraction drops the views it changes
    nested.registries[0].retract(2)
    assert nested.ranked_offers(0, 0) == (3,)


def test_ranked_offers_skip_providers_that_cannot_play_the_role(nested):
    register_initial_services(nested)
    assert nested.ranked_offers(1, 0) == (3,)
    nested.registries[1].offer([ServiceEntry(4, 0), ServiceEntry(9, 0)])
    assert nested.ranked_offers(1, 0) == (3,)
