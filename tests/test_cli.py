"""The fso-sim command: subcommands, outputs, exit codes."""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fso_sim import cli, engine
from fso_sim.canon import CanonError

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"


def run_cli(*argv):
    return cli.main(list(argv))


def test_validate_accepts_fixtures(capsys):
    code = run_cli("validate", "--scenario", str(SCENARIOS / "little_sister.json"))
    assert code == 0
    assert "scenario ok" in capsys.readouterr().out


def test_validate_rejects_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"roles": []}')
    code = run_cli("validate", "--scenario", str(bad))
    assert code == 1
    assert "missing keys" in capsys.readouterr().err


# one holarchy per structural rule the loader enforces while building it
BROKEN_HOLARCHIES = {
    "duplicate_id": (
        [{"id": 0, "kind": "atomic", "capabilities": [0]}, {"id": 0, "kind": "atomic", "capabilities": [0]},
         {"id": 1, "kind": "composite", "members": [0]}],
        "declared twice",
    ),
    "shared_member": (
        [{"id": 0, "kind": "atomic", "capabilities": [0]}, {"id": 1, "kind": "composite", "members": [0]},
         {"id": 2, "kind": "composite", "members": [0]}, {"id": 3, "kind": "composite", "members": [1, 2]}],
        "member of both",
    ),
    "representative_not_member": (
        [{"id": 0, "kind": "atomic", "capabilities": [0]},
         {"id": 1, "kind": "composite", "members": [0], "representative": 7}],
        "is not a member",
    ),
    "unknown_role": (
        [{"id": 0, "kind": "atomic", "capabilities": [3]}, {"id": 1, "kind": "composite", "members": [0]}],
        "undeclared role",
    ),
    "unknown_member": (
        [{"id": 0, "kind": "atomic", "capabilities": [0]}, {"id": 1, "kind": "composite", "members": [0, 9]}],
        "unknown member",
    ),
    "two_roots": (
        [{"id": 0, "kind": "atomic", "capabilities": [0]}, {"id": 1, "kind": "composite", "members": [0]},
         {"id": 2, "kind": "atomic", "capabilities": [0]}, {"id": 3, "kind": "composite", "members": [2]}],
        "exactly one root",
    ),
}


@pytest.mark.parametrize("case", list(BROKEN_HOLARCHIES.values()), ids=list(BROKEN_HOLARCHIES))
def test_validate_rejects_broken_holarchies(tmp_path, capsys, case):
    holarchy, needle = case
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    doc["holarchy"] = holarchy
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    code = run_cli("validate", "--scenario", str(path))
    assert_clean_failure(code, capsys, needle)


def test_validate_rejects_missing_file(capsys):
    code = run_cli("validate", "--scenario", "/nowhere/nothing.json")
    assert code == 1
    assert "cannot read scenario" in capsys.readouterr().err


def test_run_reports_an_internal_error_without_a_traceback(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise CanonError("staffing broke")

    monkeypatch.setattr(engine, "resolve_request", broken)
    code = run_cli("run", "--scenario", str(SCENARIOS / "minimal.json"), "--seed", "0")
    err = capsys.readouterr().err
    assert code == 2
    assert err == "internal error: staffing broke\n"


def test_enumerate_prints_the_state_count(capsys):
    code = run_cli("enumerate", "--scenario", str(SCENARIOS / "nine_actors.json"))
    assert code == 0
    assert capsys.readouterr().out.strip() == "512"


def test_run_prints_metrics(capsys):
    code = run_cli("run", "--scenario", str(SCENARIOS / "minimal.json"), "--seed", "0")
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["sons_formed"] == 2
    assert set(metrics) == {
        "events_published",
        "sons_formed",
        "mean_hop_count",
        "mean_response_latency",
        "unresolved_requests",
        "permanentifications",
        "prunings",
        "final_partition_sizes",
    }


def test_run_writes_trace_and_metrics_files(tmp_path, capsys):
    trace_path = tmp_path / "out.trace"
    metrics_path = tmp_path / "metrics.json"
    code = run_cli(
        "run",
        "--scenario",
        str(SCENARIOS / "little_sister.json"),
        "--seed",
        "1",
        "--trace",
        str(trace_path),
        "--metrics",
        str(metrics_path),
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    lines = trace_path.read_text().splitlines()
    assert lines and all(set(json.loads(line)) == {"tick", "kind", "payload"} for line in lines)
    metrics = json.loads(metrics_path.read_text())
    assert metrics["sons_formed"] == 1


def test_run_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.trace", tmp_path / "b.trace"
    for out in (a, b):
        assert run_cli(
            "run", "--scenario", str(SCENARIOS / "nine_actors.json"), "--seed", "7", "--trace", str(out)
        ) == 0
    assert a.read_bytes() == b.read_bytes()
    c = tmp_path / "c.trace"
    assert run_cli(
        "run", "--scenario", str(SCENARIOS / "nine_actors.json"), "--seed", "8", "--trace", str(c)
    ) == 0
    assert a.read_bytes() != c.read_bytes()


def test_run_horizon_override(tmp_path, capsys):
    code = run_cli(
        "run", "--scenario", str(SCENARIOS / "nine_actors.json"), "--seed", "7", "--horizon", "0"
    )
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["events_published"] == 0
    assert metrics["final_partition_sizes"] == {"L": 0, "R": 0}


def test_report_recomputes_metrics(tmp_path, capsys):
    trace_path = tmp_path / "out.trace"
    run_cli("run", "--scenario", str(SCENARIOS / "minimal.json"), "--seed", "0", "--trace", str(trace_path))
    direct = json.loads(capsys.readouterr().out)
    code = run_cli("report", "--trace", str(trace_path))
    assert code == 0
    assert json.loads(capsys.readouterr().out) == direct


def test_report_rejects_malformed_traces(tmp_path, capsys):
    bad = tmp_path / "bad.trace"
    bad.write_text('{"tick": 0, "kind": "Wat", "payload": {}}\n')
    assert run_cli("report", "--trace", str(bad)) == 1
    assert "malformed trace" in capsys.readouterr().err


@pytest.mark.parametrize(
    "kind,payload",
    [
        ("SonDissolved", {"l_size": "many", "r_size": 0}),
        ("SonDissolved", {"l_size": 2, "r_size": [1]}),
        ("RequestUnresolved", {"final": "no"}),
    ],
    ids=["text_l_size", "list_r_size", "text_final"],
)
def test_report_rejects_ill_typed_fields(tmp_path, capsys, kind, payload):
    bad = tmp_path / "bad.trace"
    records = [{"tick": 0, "kind": "EventPublished", "payload": {}}, {"tick": 1, "kind": kind, "payload": payload}]
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert_clean_failure(run_cli("report", "--trace", str(bad)), capsys, "malformed trace")


def test_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--scenario", "x.json", "--seed", "not-a-number")
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--scenario", "x.json")
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 1


def test_seed_is_required_and_bounded(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--scenario", str(SCENARIOS / "minimal.json"), "--seed", str(1 << 64))
    assert exc.value.code == 1


# -- bad input exits 1 with a one-line message, never a traceback -------------


def assert_clean_failure(code, capsys, needle):
    err = capsys.readouterr().err
    assert code == 1
    assert needle in err
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_validate_rejects_non_utf8_scenario(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"roles": ["café"]}'.encode("latin-1"))
    code = run_cli("validate", "--scenario", str(bad))
    assert_clean_failure(code, capsys, "not valid UTF-8")


def test_report_rejects_non_utf8_trace(tmp_path, capsys):
    bad = tmp_path / "latin1.trace"
    bad.write_bytes(b'{"tick": 0, "kind": "EventPublished", "payload": {"topic": "caf\xe9"}}\n')
    code = run_cli("report", "--trace", str(bad))
    assert_clean_failure(code, capsys, "malformed trace")


def test_report_rejects_non_integer_hop_count(tmp_path, capsys):
    trace_path = tmp_path / "out.trace"
    assert run_cli("run", "--scenario", str(SCENARIOS / "minimal.json"), "--seed", "0", "--trace", str(trace_path)) == 0
    capsys.readouterr()
    lines = []
    for line in trace_path.read_text().splitlines():
        doc = json.loads(line)
        if doc["kind"] == "SonFormed":
            doc["payload"]["hop_count"] = "zero"
        lines.append(json.dumps(doc))
    trace_path.write_text("\n".join(lines) + "\n")
    code = run_cli("report", "--trace", str(trace_path))
    assert_clean_failure(code, capsys, "non-integer hop_count")


@pytest.mark.parametrize("flag", ["--trace", "--metrics"])
def test_run_rejects_unwritable_output(tmp_path, capsys, flag):
    target = tmp_path / "missing" / "dir" / "out.jsonl"
    code = run_cli("run", "--scenario", str(SCENARIOS / "minimal.json"), "--seed", "0", flag, str(target))
    assert_clean_failure(code, capsys, "cannot write")
    assert not target.exists()


# inputs that break the JSON decoder itself rather than the JSON grammar
UNDECODABLE = {
    "deep_nesting": "[" * 100_000 + "]" * 100_000,
    "huge_integer": "1" * 5000,
}


@pytest.mark.parametrize("text", list(UNDECODABLE.values()), ids=list(UNDECODABLE))
@pytest.mark.parametrize("command", ["validate", "run", "enumerate", "report"])
def test_undecodable_input_exits_one(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    if command == "report":
        code = run_cli("report", "--trace", str(path))
        needle = "malformed trace"
    else:
        seed = ["--seed", "0"] if command == "run" else []
        code = run_cli(command, "--scenario", str(path), *seed)
        needle = "scenario is not valid JSON"
    assert_clean_failure(code, capsys, needle)


@pytest.mark.parametrize("rate", [5e-324, 1e-310])
def test_run_accepts_a_rate_too_small_to_ever_fire(tmp_path, capsys, rate):
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    doc["environment"] = [
        {"topic": "knock", "injection_soc": 1, "process": {"kind": "poisson", "rate": rate}}
    ]
    path = tmp_path / "tiny_rate.json"
    path.write_text(json.dumps(doc))
    code = run_cli("run", "--scenario", str(path), "--seed", "0")
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert json.loads(captured.out)["events_published"] == 0


DEPTH = 1100  # past Python's default recursion limit of 1000


def long_augmenting_path(depth):
    """One SoC whose only perfect matching shifts every slot along a path.

    Actor ``depth - 1 - j`` plays roles ``j - 1`` and ``j``, so each role's
    first-ranked actor also plays the next role, and the last slot can be
    filled only by moving every slot before it to its second choice.
    """
    actors = [
        {"id": depth - 1 - j, "kind": "atomic", "capabilities": [r for r in (j - 1, j) if 0 <= r < depth]}
        for j in range(depth)
    ]
    return depth, actors + [{"id": depth, "kind": "composite", "members": list(range(depth))}], list(range(depth))


def deep_chain(depth):
    """SoCs nested ``depth`` levels deep; only the deepest actor plays the role.

    The root is SoC ``depth`` and each SoC has a lower id than the one it
    holds, so registration must not go in id order.
    """
    actors = [{"id": k, "kind": "atomic", "capabilities": [int(k == depth - 1)]} for k in range(depth)]
    socs = [
        {"id": depth + k, "kind": "composite", "members": [k] + ([depth + k + 1] if k + 1 < depth else [])}
        for k in range(depth)
    ]
    return 2, actors + socs, [1]


@pytest.mark.parametrize(
    "build,depth",
    [
        pytest.param(long_augmenting_path, DEPTH, id="long_augmenting_path"),
        pytest.param(deep_chain, DEPTH, id="deep_chain"),
        pytest.param(deep_chain, 10_000, id="deep_chain_10000"),
    ],
)
def test_run_staffs_inputs_deeper_than_the_recursion_limit(tmp_path, capsys, build, depth):
    n_roles, holarchy, needed = build(depth)
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    doc["roles"] = [f"r{r}" for r in range(n_roles)]
    doc["holarchy"] = holarchy
    doc["activities"][0]["required_roles"] = needed
    doc["environment"] = [{"topic": "knock", "injection_soc": depth, "process": {"kind": "scripted", "times": [1]}}]
    doc["horizon"] = 3
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    code = run_cli("run", "--scenario", str(path), "--seed", "0")
    assert code == 0
    assert json.loads(capsys.readouterr().out)["sons_formed"] == 1


# json.dumps writes float("inf") and float("nan") as the bare tokens
# Infinity and NaN, which the JSON grammar does not have
NON_STANDARD_NUMBERS = {
    "infinite_rate": (("environment", 0, "process"), {"kind": "poisson", "rate": float("inf")}),
    "nan_strength_increment": (("policy", "strength_increment"), float("nan")),
    "negative_infinite_horizon": (("horizon",), float("-inf")),
}


@pytest.mark.parametrize("case", list(NON_STANDARD_NUMBERS.values()), ids=list(NON_STANDARD_NUMBERS))
@pytest.mark.parametrize("command", ["validate", "run"])
def test_non_standard_json_numbers_exit_one(tmp_path, capsys, command, case):
    path, value = case
    doc = json.loads((SCENARIOS / "minimal.json").read_text())
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    scenario = tmp_path / "non_standard.json"
    scenario.write_text(json.dumps(doc))
    seed = ["--seed", "0"] if command == "run" else []
    code = run_cli(command, "--scenario", str(scenario), *seed)
    assert_clean_failure(code, capsys, "is not a JSON number")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_a_repeated_key_exits_one(tmp_path, capsys, command):
    text = (SCENARIOS / "minimal.json").read_text()
    scenario = tmp_path / "repeated.json"
    scenario.write_text(text.replace('"horizon"', '"horizon": 3, "horizon"', 1))
    seed = ["--seed", "0"] if command == "run" else []
    code = run_cli(command, "--scenario", str(scenario), *seed)
    assert_clean_failure(code, capsys, "duplicate key 'horizon'")


@pytest.mark.parametrize("lines_read", [0, 1])
def test_closed_stdout_pipe_ends_quietly(lines_read):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "fso_sim.cli", "run", "--scenario", str(SCENARIOS / "minimal.json"), "--seed", "0"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    for _ in range(lines_read):
        assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    code = proc.wait(timeout=60)
    assert "Traceback" not in err
    assert err == ""
    # a reader that closes before anything is written always breaks the
    # pipe; one that reads a line first may race the last write
    assert code == 1 if lines_read == 0 else code in (0, 1)


# -- fuzzing: mutated scenarios and traces exit 0 or 1, never a traceback ----

SHIPPED = {p.name: json.loads(p.read_text()) for p in sorted(SCENARIOS.glob("*.json"))}
# values of every JSON type, for a field that expects another
OTHER_TYPES = [None, True, "x", 1.5, [], {}, [0], {"k": 0}]
# numbers outside what a field allows, or at the edge of it
OUT_OF_RANGE = [-1, 0, -(1 << 63), 1 << 64, 10**18, 0.5, 1e300]


def _paths(node, at=()):
    """The path of every value in a JSON document, the document included."""
    yield at
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, at + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` with one to three values deleted, retyped or pushed out of range."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        how = draw(st.sampled_from(["delete", "retype", "out_of_range"]))
        value = copy.deepcopy(draw(st.sampled_from(OUT_OF_RANGE if how == "out_of_range" else OTHER_TYPES)))
        if not path:
            doc = {} if how == "delete" else value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if how == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return doc


def assert_exits_cleanly(code, capsys):
    assert code in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), name=st.sampled_from(sorted(SHIPPED)))
def test_mutated_scenarios_exit_zero_or_one(tmp_path, capsys, data, name):
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(data.draw(mutated(SHIPPED[name]), label="scenario")))
    assert_exits_cleanly(run_cli("validate", "--scenario", str(path)), capsys)
    assert_exits_cleanly(run_cli("run", "--scenario", str(path), "--seed", "1", "--horizon", "50"), capsys)
    assert_exits_cleanly(run_cli("enumerate", "--scenario", str(path)), capsys)


@pytest.fixture(scope="module")
def shipped_trace():
    trace, _ = engine.run_scenario(engine.load_scenario_file(str(SCENARIOS / "nine_actors.json")), seed=7)
    return [json.loads(line) for line in engine.write_trace(trace).splitlines()]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_traces_exit_zero_or_one(tmp_path, capsys, shipped_trace, data):
    records = list(shipped_trace)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        i = data.draw(st.integers(0, len(records) - 1), label="line")
        records[i] = data.draw(mutated(records[i]), label=f"record {i}")
    path = tmp_path / "mutant.trace"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert_exits_cleanly(run_cli("report", "--trace", str(path)), capsys)
