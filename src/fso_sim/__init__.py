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
    Staffing,
    dissolve_son,
    form_son,
    publish,
    resolve_request,
)
from .engine import (
    Scenario,
    Simulation,
    load_scenario,
    load_scenario_file,
    run_scenario,
    scenario_from_dict,
)
from .environment import (
    EventSource,
    PeriodicProcess,
    PoissonProcess,
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
    Holon,
    HolonKind,
    build_holarchy,
    register_initial_services,
    validate,
)
from .trace import Metrics, TraceRecord, parse_trace, report, write_trace

__version__ = "0.1.0"

__all__ = [
    "ActivationState",
    "ActivityTable",
    "EventSource",
    "EvolutionPolicy",
    "ExperienceLedger",
    "FailureWindow",
    "Holarchy",
    "Holon",
    "HolonKind",
    "Metrics",
    "Outcome",
    "PeriodicProcess",
    "PoissonProcess",
    "ResponseActivity",
    "Scenario",
    "ScriptedProcess",
    "Simulation",
    "Son",
    "Staffing",
    "TraceRecord",
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
