"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``."""

from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

from fso_sim import canon, engine
from fso_sim.engine import load_scenario
from fso_sim.holarchy import Holarchy

import harness
import hostspeed
import tracer
import workloads
from tracer import Tracer, installed, patched

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- spans and self time -------------------------------------------------------


def test_self_time_of_nested_synthetic_spans():
    tr = Tracer()
    root = tr.add("root", 0, 100)
    a = tr.add("a", 10, 40, parent=root)
    tr.add("leaf", 15, 25, parent=a)
    tr.add("b", 50, 70, parent=root)
    tr.add("root", 200, 205)

    assert list(tr.self_times()) == [50, 20, 10, 20, 5]
    totals = tr.totals()
    assert totals["root"] == {"calls": 2, "total_ns": 105, "self_ns": 55}
    assert totals["a"] == {"calls": 1, "total_ns": 30, "self_ns": 20}
    assert tr.top_level_ns() == 105
    assert tr.child_ns("root", "a") == 30
    assert tr.child_ns("root", "leaf") == 0
    assert tr.durations_of("root") == [100, 5]


def test_wrapped_calls_nest_and_inherit_the_phase():
    ticks = itertools.count()
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("inner", lambda x: x + 1)
    outer = tr.wrap("outer", lambda x: inner(x) * 2)

    assert outer(1) == 4
    assert [tr.names[i] for i in tr.name] == ["outer", "inner"]
    assert list(tr.parent) == [-1, 0]
    assert list(tr.start) == [0, 1] and list(tr.end) == [3, 2]
    assert list(tr.self_times()) == [2, 1]
    assert tr.phase[0] == tr.phase[1] == tracer.PHASES.index("other")


# -- the percentile rule -------------------------------------------------------


def test_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 1001))
    assert harness.percentile(samples, 99) == 990
    assert harness.percentile(samples, 50) == 500
    with pytest.raises(ValueError):
        harness.percentile(samples[:999], 99)
    assert harness.percentile(list(range(20)), 50) == 9
    with pytest.raises(ValueError):
        harness.percentile(list(range(19)), 50)


# -- host-speed scaling --------------------------------------------------------


def test_each_tick_takes_the_scale_of_the_next_kernel_sample(monkeypatch):
    ref = hostspeed.REFERENCE_NS
    monkeypatch.setattr(hostspeed, "HALF_WINDOW", 0)
    assert hostspeed.tick_scales(5, [2, 5], [ref, 2 * ref]) == [1.0, 1.0, 0.5, 0.5, 0.5]
    with pytest.raises(ValueError):
        hostspeed.tick_scales(5, [2, 4], [ref, ref])


def test_one_slow_kernel_sample_is_smoothed_away():
    ref = hostspeed.REFERENCE_NS
    samples = [ref] * 3 + [3 * ref] + [ref] * 3
    assert hostspeed.tick_scales(7, [1, 2, 3, 4, 5, 6, 7], samples) == [1.0] * 7


# -- wrappers ------------------------------------------------------------------


def _originals():
    return {(id(owner), attr): owner.__dict__[attr] for owner, attr, _ in tracer.TARGETS}


def test_wrappers_are_removed_before_untraced_runs(tmp_path):
    before = _originals()
    assert installed() == []
    with pytest.raises(RuntimeError):
        with patched(Tracer()):
            assert len(installed()) == len(tracer.TARGETS)
            raise RuntimeError("left the block early")
    assert installed() == []
    assert _originals() == before
    assert engine.resolve_request is canon.resolve_request
    assert Holarchy.__dict__["subtree_atoms"].__module__ == "fso_sim.holarchy"

    wl = harness.Workload.write("fixture_long", 1, REPO_ROOT, str(tmp_path), horizon=20)
    with patched(Tracer()):
        with pytest.raises(RuntimeError, match="still installed"):
            harness.drive(wl.path)


# -- the generator -------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generator_is_deterministic(name):
    first = workloads.scenario_json(name, 7, REPO_ROOT)
    assert workloads.scenario_json(name, 7, REPO_ROOT) == first
    other = json.loads(workloads.scenario_json(name, 8, REPO_ROOT))
    assert other["seed"] != json.loads(first)["seed"]
    scenario = load_scenario(first)
    assert scenario.horizon >= 1000


# -- smoke runs ----------------------------------------------------------------


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_run_of_each_workload_passes_every_check(name, tmp_path):
    wl = harness.Workload.write(name, 3, REPO_ROOT, str(tmp_path), horizon=40)
    plain = harness.drive(wl.path)
    sha, problems = harness.check_trace(plain)
    assert problems == []
    assert len(plain.step_ns) == 40

    tr = Tracer()
    with patched(tr):
        traced = harness.drive(wl.path, tr)
    assert installed() == []
    assert harness.check_trace(traced) == (sha, [])
    assert len(traced.tick_marks) == 41
    assert tr.totals()["canon.publish"]["calls"] == plain.metrics["events_published"]

    problems, run_s, report_s = harness.cli_check(wl, traced.sim.seed, sha, plain.metrics, str(tmp_path))
    assert problems == [] and run_s > 0 and report_s > 0


def _declared(kind):
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def test_short_measurements_report_every_declared_metric(tmp_path):
    wl = harness.Workload.write("fixture_long", 1, REPO_ROOT, str(tmp_path), horizon=1200)
    e2e = harness.measure_end_to_end(wl, seconds=0)
    assert {k: unit for k, (_, unit) in e2e.metrics.items()} == _declared("end_to_end")
    assert e2e.tally.failed == 0 and e2e.notes["tick_samples"] == 1200
    assert e2e.notes["host_scale"] > 0 and e2e.notes["host_ticks_per_s"] > 0

    wl = harness.Workload.write("fixture_long", 1, REPO_ROOT, str(tmp_path), horizon=6000)
    layers = harness.measure_layers(wl, seconds=0, work_dir=str(tmp_path))
    m = {k: v for k, (v, _) in layers.metrics.items()}
    assert {k: unit for k, (_, unit) in layers.metrics.items()} == _declared("per_layer")
    assert layers.tally.attempted == 3 and layers.tally.failed == 0
    assert m["canon.resolve_calls"] == m["engine.retry_attempts"] + layers.stats["events_published"]
    assert 0 < m["canon.resolve_self_s"] < m["canon.resolve_s"]
    assert m["engine.self_s"] > 0 and m["engine.tracing_overhead"] > 0
    assert m["holarchy.topics_present_us_per_tick_q4"] > m["holarchy.topics_present_us_per_tick_q1"]


def test_benchmark_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), tmp_path / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fixture_long", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
