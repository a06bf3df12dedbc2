"""The fso-sim benchmark: one workload per call, or every workload in turn.

    python3 bench/run.py --workload escalation_512 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root. ``--trace 0`` measures the end-to-end metrics
with nothing wrapped; ``--trace 1`` measures the per-layer metrics from a
separate traced run. Every metric is printed by name with its unit, then the
trace hash and the simulated statistics as exact values, and the last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` runs each workload, both ways, in a fresh process each.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import traceback

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
WORK_ROOT = os.path.join(REPO_ROOT, ".bench_build")


def _print_result(measured) -> None:
    for name, (value, unit) in measured.metrics.items():
        print(f"metric {name} {value!r} {unit}")
    for name, value in measured.notes.items():
        print(f"note {name} {value}")
    for name, value in measured.stats.items():
        print(f"stat {name} {value}")
    tally = measured.tally
    print(f"run_failure_ratio {tally.failed / tally.attempted!r} ({tally.failed} failed of {tally.attempted} attempted)")
    for problem in tally.problems:
        print(f"problem {problem}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in measured.metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))


def run_one(workload: str, seed: int, seconds: int, trace: int) -> int:
    src = os.path.join(REPO_ROOT, "src")
    if not os.path.isfile(os.path.join(src, "fso_sim", "__init__.py")):
        print(f"fso-sim sources not found under {src}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness

    os.makedirs(WORK_ROOT, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK_ROOT)
    try:
        wl = harness.Workload.write(workload, seed, REPO_ROOT, work_dir)
        print(f"workload {workload} seed {seed} seconds {seconds} trace {trace}")
        if trace:
            measured = harness.measure_layers(wl, seconds, work_dir)
        else:
            measured = harness.measure_end_to_end(wl, seconds)
    except Exception:
        # a run that raises is a failed run; there is nothing to measure
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    _print_result(measured)
    return 0


def run_all(seed: int, seconds: int) -> int:
    """Each workload, untraced then traced, each in a fresh process."""
    combined = {}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)]
            done = subprocess.run(argv, capture_output=True, text=True, cwd=REPO_ROOT)
            sys.stdout.write(done.stdout)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            entry = combined.setdefault(workload, {})
            entry["per_layer" if trace else "end_to_end"] = result
            entry["stats"] = dict(line.split(" ", 2)[1:] for line in lines if line.startswith("stat "))
    print(json.dumps({"seed": seed, "seconds": seconds, "workloads": combined}, sort_keys=True))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True, help="workload seed; the same seed gives the same inputs")
    parser.add_argument("--seconds", type=int, required=True, help="host seconds to measure for")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_one(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    raise SystemExit(main())
