"""The names the benchmark's tracer patches and reads must still resolve.

``bench/tracer.py`` (loaded read-only) wraps functions at the names where
their callers look them up, and charges each span to the tick phase of the
nearest engine function on the stack, found by its name. Drop an
engine-level import and only a traced bench run fails; rename a
``_phase_*`` method and nothing fails at all, its time is just counted as
``other``. These tests catch both in the ordinary test run, and check on
one small run that every staffing attempt is charged to the resolve or the
retry phase.
"""

from __future__ import annotations

import ast
import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from fso_sim import engine

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_is_defined_where_it_is_patched(tracer):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in tracer.TARGETS if attr not in owner.__dict__
    ]
    assert missing == []


def test_every_phase_frame_names_a_function_of_the_engine(tracer):
    tree = ast.parse(Path(engine.__file__).read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert sorted(set(tracer.PHASE_OF_FRAME) - defined) == []


def test_every_resolve_is_charged_to_the_resolve_or_the_retry_phase(tracer):
    # minimal.json's second knock finds the helper busy, parks, and is
    # retried when the first overlay dissolves
    scenario = engine.load_scenario_file(str(ROOT / "scenarios" / "minimal.json"))
    with tracer.patched(tracer.Tracer()) as spans:
        engine.run_scenario(scenario)
    resolve = spans.names.index("canon.resolve")
    phases = Counter(tracer.PHASES[spans.phase[i]] for i in range(len(spans)) if spans.name[i] == resolve)
    assert phases == {"resolve": 2, "retry": 1}


@pytest.mark.parametrize("debug", [False, True])
def test_every_staffing_attempt_is_one_resolve_span(tracer, monkeypatch, debug):
    # answered from memory or not, and with the debug referee resolving
    # each attempt again, an attempt is exactly one canon.resolve span
    attempts = 0
    attempt = engine.Simulation._attempt

    def counted(self, r):
        nonlocal attempts
        attempts += 1
        return attempt(self, r)

    monkeypatch.setattr(engine.Simulation, "_attempt", counted)
    scenario = engine.load_scenario_file(str(ROOT / "scenarios" / "nine_actors.json"))
    with tracer.patched(tracer.Tracer()) as spans:
        engine.run_scenario(scenario, seed=4242, debug=debug)
    resolve = spans.names.index("canon.resolve")
    assert attempts > 0
    assert sum(name == resolve for name in spans.name) == attempts
