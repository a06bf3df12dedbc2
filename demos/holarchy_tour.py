"""A walking tour of one holarchy: structure, registries, visibility.

Loads the nine-actor scenario, prints who contains whom, what each
community's registry advertises after initial registration, and how many
activation states the population spans.
"""

from __future__ import annotations

from pathlib import Path

from fso_sim import (
    HolonKind,
    build_holarchy,
    enumerate_activation_space,
    load_scenario,
    register_initial_services,
    validate,
)

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "nine_actors.json"


def main() -> None:
    scenario = load_scenario(SCENARIO.read_text())
    h = build_holarchy(scenario.holons, scenario.roles)
    register_initial_services(h)

    print(f"roles: {', '.join(f'{i}={name}' for i, name in enumerate(scenario.role_names))}")
    print(f"root community: {h.root}")
    print()

    for soc in h.composites():
        node = h.holons[soc]
        above = h.parent.get(soc)
        above_text = f"inside {above}" if above is not None else "top level"
        print(f"SoC {soc} ({above_text}), representative {node.representative}")
        for m in node.members:
            member = h.holons[m]
            if member.kind is HolonKind.ATOMIC:
                caps = sorted(member.capabilities)
                print(f"  actor {m}, roles {caps}")
            else:
                print(f"  community {m}, punctualized by its representative {member.representative}")
        offers = [(e.provider, e.role, e.via) for e in h.registries[soc].service_entries]
        print(f"  registry offers: {offers}")
    print()

    for a in h.atoms():
        home = h.parent[a]
        print(f"actor {a} sees its community {home}: {sorted(h.holons[home].members)}")
    print()

    assert validate(h) == []
    print("structure validates cleanly")
    print(f"activation states: {enumerate_activation_space(scenario.holons)}")


if __name__ == "__main__":
    main()
