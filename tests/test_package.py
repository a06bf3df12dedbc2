"""The package's public API list."""

from __future__ import annotations

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
    # and the assignment these types used to carry
    gone = ("Rng", "EnvironmentSpec", "HolarchySpec", "Enabled", "Missing")
    for module in (fso_sim, activation, canon, cli, engine, environment, evolution, holarchy):
        assert [name for name in gone if hasattr(module, name)] == [], module.__name__
