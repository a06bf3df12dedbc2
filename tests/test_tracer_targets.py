"""The names the benchmark's tracer patches and reads must still resolve.

``bench/tracer.py`` (loaded read-only) wraps functions at the names where
their callers look them up, and charges each span to the tick phase of the
nearest engine function on the stack, found by its name. Drop an
engine-level import and only a traced bench run fails; rename a
``_phase_*`` method and nothing fails at all, its time is just counted as
``other``. These tests catch both in the ordinary test run, and check on
one small run that every staffing attempt is charged to the resolve or the
retry phase. The names the bench imports from the package are checked the
same way, so a refactor that moves one breaks this run, not only the bench.
"""

from __future__ import annotations

import ast
import importlib.util
import re
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


def bench_imports():
    """``(file, module, name)`` for each ``from fso_sim… import name`` in
    ``bench/*.py``, read without running it, among them the code a script
    hands a child interpreter as a string."""
    found = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        children = [
            ast.parse(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            and re.search(r"^from fso_sim", node.value, re.MULTILINE)
        ]
        for module in (tree, *children):
            found += [
                (path.name, node.module, alias.name)
                for node in ast.walk(module)
                if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "fso_sim"
                for alias in node.names
            ]
    return found


def test_every_name_the_bench_imports_from_the_package_resolves():
    imports = bench_imports()
    # the harness checks every run by writing, parsing and reporting its trace
    assert {"parse_trace", "report", "write_trace"} <= {name for _, _, name in imports}
    unresolved = []
    for file, module, name in imports:
        owner = importlib.import_module(module)
        # a name is an attribute of its module, or a submodule of a package
        submodule = hasattr(owner, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None
        if not (hasattr(owner, name) or submodule):
            unresolved.append(f"{file}: from {module} import {name}")
    assert unresolved == []


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
