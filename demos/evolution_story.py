"""How the holarchy learns: promotion of a recurring overlay, then pruning.

The same two actors keep teaming up across community borders. After the
third success their overlay is made permanent: a new community appears,
though it does not yet change how later requests are staffed. A later
streak of failures removes it again, restoring the original shape.
"""

from __future__ import annotations

from pathlib import Path

from fso_sim import Simulation, load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_and_tell(name: str) -> None:
    scenario = load_scenario((SCENARIOS / f"{name}.json").read_text())
    sim = Simulation(scenario, debug=True)
    sim.run()
    trace = sim.trace

    print(f"--- {name} ---")
    for r in trace:
        p = r.payload
        if r.kind == "SonDissolved":
            print(f"t={r.tick}: overlay of actors {[a for a, _ in p['members']]} finished: {p['outcome']}")
        elif r.kind == "Permanentified":
            print(
                f"t={r.tick}: actors {list(p['members'])} promoted into permanent community "
                f"{p['soc']} under {p['parent']}"
            )
        elif r.kind == "Pruned":
            print(f"t={r.tick}: community {p['soc']} pruned, members {list(p['members'])} disband")
    # one unit per successful overlay the two actors shared, folded from the trace
    strength = float(
        sum(
            1
            for r in trace
            if r.kind == "SonDissolved"
            and r.payload["outcome"] == "success"
            and {0, 1} <= {a for a, _ in r.payload["members"]}
        )
    )
    print(f"connection strength between actors 0 and 1: {strength}")
    promoted = [i for i, n in sim.holarchy.holons.items() if n.origin.value == "permanentified"]
    print(f"permanent overlay communities at the end: {promoted or 'none'}")
    print()


def main() -> None:
    run_and_tell("promotion")
    run_and_tell("pruning")


if __name__ == "__main__":
    main()
