"""The package's public API list."""

from __future__ import annotations

import ast
from pathlib import Path

import fso_sim
from fso_sim import activation, canon, cli, engine, environment, evolution, holarchy


def test_every_public_name_resolves_and_star_imports():
    namespace: dict = {}
    exec("from fso_sim import *", namespace)
    assert len(set(fso_sim.__all__)) == len(fso_sim.__all__)
    for name in fso_sim.__all__:
        assert getattr(fso_sim, name) is namespace[name], name


def test_types_that_only_boxed_values_are_gone():
    # callers pass the holons, the role set, the sources, the missing slots
    # and the assignment these types used to carry; one Staffing record
    # answers a request, and the engine keeps the activity it staffs
    gone = ("Rng", "EnvironmentSpec", "HolarchySpec", "Enabled", "Missing", "SonPlan", "Unresolved")
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
