"""Every demo script runs to completion against the current API, and the
narrated demos print exactly their pinned text."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


# what the narrated demos print: trace arrays are tuples in memory, and the
# demos print them as lists, so a change to the in-memory form shows here
PRINTED = {
    "little_sister": (
        "the building: 0=fall_sensor, 1=camera, 2=caregiver_panel\n"
        "\n"
        "t=5: 'fall' reported in community 10\n"
        "t=5: activity 0 wakes up (request 0)\n"
        "t=5: community 10 cannot staff roles [2], asks 20 (hop 1)\n"
        "t=5: overlay 0 forms across communities [10, 11] with actor 1 as role 1, actor 3 as role 2; works until t=8\n"
        "t=8: overlay 0 dissolves (success), everyone back in reserve\n"
        "\n"
        "{\n"
        '  "events_published": 1,\n'
        '  "final_partition_sizes": {\n'
        '    "L": 7,\n'
        '    "R": 0\n'
        "  },\n"
        '  "mean_hop_count": 1.0,\n'
        '  "mean_response_latency": 0.0,\n'
        '  "permanentifications": 0,\n'
        '  "prunings": 0,\n'
        '  "sons_formed": 1,\n'
        '  "unresolved_requests": 0\n'
        "}\n"
    ),
    "evolution_story": (
        "--- promotion ---\n"
        "t=1: overlay of actors [0, 1] finished: success\n"
        "t=4: overlay of actors [0, 1] finished: success\n"
        "t=7: overlay of actors [0, 1] finished: success\n"
        "t=7: actors [0, 1] promoted into permanent community 6 under 5\n"
        "connection strength between actors 0 and 1: 3.0\n"
        "permanent overlay communities at the end: [6]\n"
        "\n"
        "--- pruning ---\n"
        "t=1: overlay of actors [0, 1] finished: success\n"
        "t=4: overlay of actors [0, 1] finished: success\n"
        "t=7: overlay of actors [0, 1] finished: success\n"
        "t=7: actors [0, 1] promoted into permanent community 6 under 5\n"
        "t=10: overlay of actors [0, 1] finished: failure\n"
        "t=13: overlay of actors [0, 1] finished: failure\n"
        "t=13: community 6 pruned, members [0, 1] disband\n"
        "connection strength between actors 0 and 1: 3.0\n"
        "permanent overlay communities at the end: none\n"
        "\n"
    ),
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    if demo.stem in PRINTED:
        assert done.stdout == PRINTED[demo.stem]
