"""Command line front end.

Four subcommands: run a scenario, validate one, enumerate its activation
space, and recompute metrics from a saved trace. Exit codes: 0 on success,
1 when a scenario or trace fails validation, 2 when a runtime invariant
breaks or an internal fault stops a run.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .activation import ActivationError, TooLargeError, enumerate_activation_space
from .canon import CanonError
from .engine import (
    InvariantViolationError,
    MalformedTraceError,
    ParseError,
    Simulation,
    ValidationError,
    load_scenario_file,
    parse_trace,
    report,
    write_trace,
)
from .evolution import EvolutionError
from .holarchy import HolarchyError, build_holarchy


def _u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 unsigned bits")
    return value


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; exit 2 is reserved for internal faults."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fso-sim",
        description="Deterministic simulator of fractal service-oriented communities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and report metrics")
    p_run.add_argument("--scenario", required=True, help="scenario JSON file")
    p_run.add_argument("--seed", required=True, type=_u64, help="seed, overrides the scenario's")
    p_run.add_argument("--horizon", type=_non_negative, help="tick count, overrides the scenario's")
    p_run.add_argument("--trace", help="write the event trace here, one JSON record per line")
    p_run.add_argument("--metrics", help="write metrics JSON here instead of stdout")

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("--scenario", required=True)

    p_enum = sub.add_parser("enumerate", help="count the activation states of a scenario")
    p_enum.add_argument("--scenario", required=True)

    p_rep = sub.add_parser("report", help="recompute metrics from a saved trace")
    p_rep.add_argument("--trace", required=True)

    return parser


class _CliError(Exception):
    """Carries a message that main() prints to stderr before exiting 1."""


def _load(path: str):
    try:
        return load_scenario_file(path)
    except OSError as exc:
        raise _CliError(f"cannot read scenario: {exc}") from None
    except UnicodeDecodeError as exc:
        raise _CliError(f"scenario is not valid UTF-8: {exc.reason} at byte {exc.start}") from None
    except ParseError as exc:
        raise _CliError(f"scenario is not valid JSON: {exc}") from None
    except ValidationError as exc:
        raise _CliError(f"invalid scenario: {exc}") from None


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    sim = Simulation(scenario, seed=args.seed, horizon=args.horizon)
    try:
        metrics = sim.run()
    except InvariantViolationError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 2
    except (CanonError, ActivationError, EvolutionError, HolarchyError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        _write(args.trace, "trace", write_trace(sim.trace))
    text = json.dumps(metrics.to_dict(), indent=2, sort_keys=True)
    if args.metrics:
        _write(args.metrics, "metrics", text + "\n")
    else:
        print(text)
    return 0


def _write(path: str, what: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(f"cannot write {what}: {exc}") from None


def _cmd_validate(args: argparse.Namespace) -> int:
    # loading already enforced every structural rule of the holarchy
    scenario = _load(args.scenario)
    holons = scenario.holarchy.holons
    atoms = sum(1 for node in holons if node.is_atomic)
    print(
        f"scenario ok: {len(holons)} holons ({atoms} actors), "
        f"{len(scenario.role_names)} roles, {len(scenario.activities.activities)} activities"
    )
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario)
    h = build_holarchy(scenario.holarchy)
    try:
        count = enumerate_activation_space(h)
    except TooLargeError as exc:
        print(f"cannot enumerate: {exc}", file=sys.stderr)
        return 1
    print(count)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        with open(args.trace, "r", encoding="utf-8") as fh:
            records = parse_trace(fh.read())
        metrics = report(records)
    except OSError as exc:
        print(f"cannot read trace: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"malformed trace: not valid UTF-8: {exc.reason} at byte {exc.start}", file=sys.stderr)
        return 1
    except MalformedTraceError as exc:
        print(f"malformed trace: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(metrics.to_dict(), indent=2, sort_keys=True))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "validate": _cmd_validate,
        "enumerate": _cmd_enumerate,
        "report": _cmd_report,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()
        return code
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout (say, `| head -1`): stop quietly, and keep
        # the interpreter's final flush from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
