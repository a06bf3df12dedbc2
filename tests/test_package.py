"""The package's public API list."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import fso_sim
from fso_sim import activation, canon, cli, engine, environment, evolution, holarchy, trace


def test_every_public_name_resolves_and_star_imports():
    namespace: dict = {}
    exec("from fso_sim import *", namespace)
    assert len(set(fso_sim.__all__)) == len(fso_sim.__all__)
    for name in fso_sim.__all__:
        assert getattr(fso_sim, name) is namespace[name], name


def test_types_that_only_boxed_values_are_gone():
    # callers pass the holons, the role set, the sources, the missing slots
    # and the assignment these types used to carry; one Staffing record
    # answers a request, the engine keeps the activity it staffs, and an
    # arrival is the InformationItem it publishes
    gone = ("Rng", "EnvironmentSpec", "HolarchySpec", "Enabled", "Missing", "SonPlan", "Unresolved", "Arrival")
    for module in (fso_sim, activation, canon, cli, engine, environment, evolution, holarchy):
        assert [name for name in gone if hasattr(module, name)] == [], module.__name__
    assert not hasattr(canon.ActivityTable, "by_id")


def test_every_module_level_import_is_used():
    # the package's own modules; __init__ imports only to re-export
    unused = []
    for path in sorted(Path(fso_sim.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", None) != "__future__":
                unused += [
                    f"{path.name}: {bound}"
                    for bound in (alias.asname or alias.name.split(".")[0] for alias in stmt.names)
                    if bound not in read
                ]
    assert unused == []


def test_the_trace_module_imports_nothing_else_from_the_package():
    # the trace's format, reader, writer and fold stand alone, so the
    # engine, the CLI and any other reader build on it, never the reverse
    tree = ast.parse(Path(trace.__file__).read_text(encoding="utf-8"))
    imported = [
        f"{'.' * node.level}{node.module or ''}" if isinstance(node, ast.ImportFrom) else alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported and [name for name in imported if name.startswith((".", "fso_sim"))] == []


def test_per_event_records_are_slotted_and_the_ledger_key_stays_frozen():
    # the records built on every event carry no per-instance dict; the
    # ledger keys on SonSignature, so it must stay hashable and immutable,
    # with the hash a frozen dataclass of its two fields had, which fixes
    # the iteration order of the ledger's sets
    records = (
        trace.TraceRecord(0, "Pruned", {}),
        canon.HopRecord(1, 0, 1, (2,)),
        canon.Staffing((), (), ((3, 0),), (3,), 1, (1,)),
        canon.Son(0, 0, ((3, 0),), (3,), 2),
        activation.Binding(0, 0),
    )
    assert [type(r).__name__ for r in records if hasattr(r, "__dict__")] == []
    assert not hasattr(activation.Binding(0, 0), "__dict__")
    sig = evolution.SonSignature(0, (3,))
    assert hash(sig) == hash(evolution.SonSignature(0, (3,)))
    assert hash(evolution.SonSignature(0, (3,))) == hash((0, (3,)))
    # dataclasses.FrozenInstanceError, for a frozen dataclass, subclasses it
    with pytest.raises(AttributeError):
        sig.activity = 1
