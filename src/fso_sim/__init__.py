"""Deterministic simulator of fractal service-oriented communities.

Communities of actors nest into a holarchy; published events trigger
guarded response activities; staffing requests escalate community by
community until a temporary overlay network can form; recurring successful
overlays become permanent communities and failing ones are pruned.
"""

from .activation import (
    ActivationState,
    enroll,
    enumerate_activation_space,
    initial_state,
    release,
)
from .canon import (
    ActivityTable,
    ResponseActivity,
    Son,
    SonPlan,
    Unresolved,
    dissolve_son,
    form_son,
    publish,
    resolve_request,
)
from .engine import (
    Metrics,
    Scenario,
    Simulation,
    TraceRecord,
    load_scenario,
    load_scenario_file,
    parse_trace,
    report,
    run_scenario,
    scenario_from_dict,
    write_trace,
)
from .environment import (
    EnvironmentSpec,
    EventSource,
    PeriodicProcess,
    PoissonProcess,
    Rng,
    ScriptedProcess,
    sample_arrivals,
)
from .evolution import (
    EvolutionPolicy,
    ExperienceLedger,
    FailureWindow,
    Outcome,
    maybe_permanentify,
    maybe_prune,
    record_outcome,
)
from .holarchy import (
    Holarchy,
    HolarchySpec,
    Holon,
    HolonKind,
    build_holarchy,
    register_initial_services,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationState",
    "ActivityTable",
    "EnvironmentSpec",
    "EventSource",
    "EvolutionPolicy",
    "ExperienceLedger",
    "FailureWindow",
    "Holarchy",
    "HolarchySpec",
    "Holon",
    "HolonKind",
    "Metrics",
    "Outcome",
    "PeriodicProcess",
    "PoissonProcess",
    "ResponseActivity",
    "Rng",
    "Scenario",
    "ScriptedProcess",
    "Simulation",
    "Son",
    "SonPlan",
    "TraceRecord",
    "Unresolved",
    "build_holarchy",
    "dissolve_son",
    "enroll",
    "enumerate_activation_space",
    "form_son",
    "initial_state",
    "load_scenario",
    "load_scenario_file",
    "maybe_permanentify",
    "maybe_prune",
    "parse_trace",
    "publish",
    "record_outcome",
    "register_initial_services",
    "release",
    "report",
    "resolve_request",
    "run_scenario",
    "sample_arrivals",
    "scenario_from_dict",
    "validate",
    "write_trace",
]
