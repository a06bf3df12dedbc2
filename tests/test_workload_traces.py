"""Benchmark trace pins: the full trace sha256 of every bench workload.

The benchmark prints a ``trace_sha256`` for each workload and seed, and a
change meant only to make the simulator faster or simpler must leave those
hashes as they are. This test pins them in the ordinary test run. Each
workload is built by the benchmark's own generator (``bench/workloads.py``,
loaded read-only), written to a scenario file, loaded the way the benchmark
loads it and run to the end with ``Simulation``.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
from pathlib import Path

import pytest

from fso_sim.engine import Scenario, Simulation, load_scenario_file
from fso_sim.trace import write_trace

ROOT = Path(__file__).resolve().parent.parent

# (workload, workload seed) -> trace sha256
PINS = {
    ("fixture_long", 1): "81a222ddcb2ba2478e24d9997af4c0be0711c4a80076d433bc503e925117f5c8",
    ("fixture_long", 4242): "724e18dd0816376899ae1800e1ef79da58b406524ee8fc7d46847f55a393ac9c",
    ("escalation_512", 1): "a51dcd5c13a58fb2b2be8af8857f9aac0cdc23da5e9d3a7641ef4309223518bb",
    ("escalation_512", 4242): "f955bb0acacad33b4e5eef80983ec17cdf7bfef08f3c8aeb01da633c7e2addb0",
    ("promotion_churn", 1): "c6ba8834f34925a3a9676774b8c2c4326d93a9d48c0c2423f6c04d1f1963300e",
    ("promotion_churn", 4242): "b720c7973e2586512cad92f2f9c9bdf5c3db71e320f72a8cde50dcacaab455b2",
}


@functools.cache
def _workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def workload_file(workload: str, seed: int, tmp_path: Path) -> str:
    """The benchmark's scenario file for ``workload`` at ``seed``, written under ``tmp_path``."""
    path = tmp_path / f"{workload}-{seed}.json"
    path.write_text(_workloads().scenario_json(workload, seed, str(ROOT)), encoding="utf-8")
    return str(path)


def workload_scenario(workload: str, seed: int, tmp_path: Path) -> Scenario:
    """The benchmark's scenario for ``workload`` at ``seed``, written to a
    file under ``tmp_path`` and loaded the way the benchmark loads it."""
    return load_scenario_file(workload_file(workload, seed, tmp_path))


@pytest.mark.parametrize(("workload", "seed"), sorted(PINS))
def test_workload_trace_is_pinned(workload, seed, tmp_path):
    sim = Simulation(workload_scenario(workload, seed, tmp_path))
    sim.run()
    assert hashlib.sha256(write_trace(sim.trace).encode("utf-8")).hexdigest() == PINS[(workload, seed)]
