"""An assisted-living building answers a fall, told tick by tick.

Sensors sit in rooms, rooms in units, units in the building. The fall is
noticed in a room that has a camera but no caregiver panel, so the request
climbs one level and the response overlay borrows the panel from the
neighboring room.
"""

from __future__ import annotations

import json
from pathlib import Path

from fso_sim import Simulation, load_scenario

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "little_sister.json"


def narrate(record) -> str:
    p = record.payload
    if record.kind == "EventPublished":
        return f"t={record.tick}: '{p['topic']}' reported in community {p['soc']}"
    if record.kind == "ActivityTriggered":
        return f"t={record.tick}: activity {p['activity']} wakes up (request {p['request']})"
    if record.kind == "ExceptionRaised":
        return (
            f"t={record.tick}: community {p['from_soc']} cannot staff roles {list(p['missing'])}, "
            f"asks {p['to_soc']} (hop {p['hop']})"
        )
    if record.kind == "SonFormed":
        members = ", ".join(f"actor {a} as role {r}" for a, r in p["members"])
        return (
            f"t={record.tick}: overlay {p['son']} forms across communities {list(p['spanned_socs'])} "
            f"with {members}; works until t={p['dissolves_at']}"
        )
    if record.kind == "SonDissolved":
        return f"t={record.tick}: overlay {p['son']} dissolves ({p['outcome']}), everyone back in reserve"
    if record.kind == "RequestUnresolved":
        return f"t={record.tick}: request {p['request']} unresolved (attempt {p['attempt']})"
    return f"t={record.tick}: {record.kind} {p}"


def main() -> None:
    scenario = load_scenario(SCENARIO.read_text())
    sim = Simulation(scenario, debug=True)
    metrics = sim.run()

    print("the building:", ", ".join(f"{i}={n}" for i, n in enumerate(scenario.role_names)))
    print()
    for record in sim.trace:
        print(narrate(record))
    print()
    print(json.dumps(metrics.to_dict(), indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
