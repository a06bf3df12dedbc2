"""Timed and traced runs of one workload, with the per-run correctness checks.

The untraced (end-to-end) measurement calls ``Simulation.step()`` up to the
horizon and then ``Simulation.run()``, which drains open overlays, timing
each step from outside. The traced measurement repeats the same drive with
span wrappers installed (see ``tracer``) and folds the spans into per-layer
numbers. Timings come from ``time.perf_counter_ns``; the end-to-end ones are
then put in reference seconds (see ``hostspeed``), the per-layer ones stay
host seconds. Ticks are simulated time.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Any

from fso_sim import cli
from fso_sim.engine import Simulation, load_scenario_file, parse_trace, report, write_trace

import hostspeed
import workloads
from tracer import Tracer, installed, patched

SETUP_REPS = 15
SETUPS_PER_REPETITION = 2
# kernel samples on each side of a timed set-up
SETUP_KERNEL_SAMPLES = 3
TAIL_SAMPLES = 10

# peak RSS comes from a fresh interpreter that only loads and runs the
# scenario, so neither the harness nor tracemalloc inflates it. The child
# reads its own VmHWM: getrusage's ru_maxrss would carry over the parent's
# high-water mark, because Linux keeps it across the exec that starts it.
_PEAK_RSS_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
from fso_sim.engine import Simulation, load_scenario_file
Simulation(load_scenario_file(sys.argv[2])).run()
with open("/proc/self/status") as fh:
    print([line.split()[1] for line in fh if line.startswith("VmHWM:")][0])
"""


def percentile(samples, pct: int):
    """Nearest-rank ``pct``-th percentile of ``samples``.

    Raises ValueError unless at least TAIL_SAMPLES samples lie beyond it, so
    a reported tail always rests on that many observations.
    """
    n = len(samples)
    rank = -(-pct * n // 100)
    if n - rank < TAIL_SAMPLES:
        raise ValueError(f"p{pct} of {n} samples has only {n - rank} beyond it; need {TAIL_SAMPLES}")
    return sorted(samples)[rank - 1]


@dataclass
class Tally:
    """Runs attempted and failed, with what went wrong in each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


@dataclass
class Workload:
    """A generated scenario on disk, plus where the simulator sources live."""

    name: str
    seed: int
    path: str
    src: str

    @staticmethod
    def write(name: str, seed: int, repo_root: str, work_dir: str, horizon: int | None = None) -> "Workload":
        path = os.path.join(work_dir, f"{name}-{seed}.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(workloads.scenario_json(name, seed, repo_root, horizon))
        return Workload(name, seed, path, os.path.join(repo_root, "src"))


# -- one run and its checks --------------------------------------------------


@dataclass
class Run:
    sim: Simulation
    metrics: dict[str, Any]
    run_ns: int
    drain_ns: int
    step_ns: array
    tick_marks: array
    kernel_at: array
    kernel_ns: array


def drive(path: str, tracer: Tracer | None = None) -> Run:
    """Load, construct, step to the horizon and drain, timing from outside.

    Untraced, each step's host time is recorded, with a host-speed kernel
    sample every ``hostspeed.EVERY_NS`` and one after the drain; the run and
    drain times leave the samples out. Traced, the span count at each tick
    boundary is recorded instead, so spans can be mapped to ticks.
    """
    if tracer is None and installed():
        raise RuntimeError(f"span wrappers still installed before an untraced run: {installed()}")
    gc.collect()
    clock = time.perf_counter_ns
    sim = Simulation(load_scenario_file(path))
    step, horizon = sim.step, sim.horizon
    step_ns = array("q")
    marks = array("q")
    kernel_at = array("q")
    kernel_ns = array("q")
    start = clock()
    if tracer is None:
        last = start
        while sim.clock < horizon:
            a = clock()
            step()
            b = clock()
            step_ns.append(b - a)
            if b - last > hostspeed.EVERY_NS:
                kernel_ns.append(hostspeed.sample())
                kernel_at.append(len(step_ns))
                last = clock()
    else:
        while sim.clock < horizon:
            marks.append(len(tracer))
            step()
        marks.append(len(tracer))
    drain_start = clock()
    metrics = sim.run()
    end = clock()
    run_ns = end - start - sum(kernel_ns)
    if tracer is None:
        kernel_ns.append(hostspeed.sample())
        kernel_at.append(len(step_ns))
    return Run(sim, metrics.to_dict(), run_ns, end - drain_start, step_ns, marks, kernel_at, kernel_ns)


def check_trace(run: Run) -> tuple[str, list[str]]:
    """The trace's sha256 and every check it fails."""
    sim = run.sim
    text = write_trace(sim.trace)
    problems = []
    if report(parse_trace(text)).to_dict() != run.metrics:
        problems.append("report(parse_trace(write_trace(trace))) differs from the run's metrics")
    formed: Counter[int] = Counter()
    dissolved: Counter[int] = Counter()
    actors = len(sim.holarchy.atoms())
    bad_sizes = 0
    for r in sim.trace:
        if r.kind == "SonFormed":
            formed[r.payload["son"]] += 1
        elif r.kind == "SonDissolved":
            dissolved[r.payload["son"]] += 1
        if "l_size" in r.payload and r.payload["l_size"] + r.payload["r_size"] != actors:
            bad_sizes += 1
    if formed != dissolved or any(n != 1 for n in formed.values()):
        problems.append("some SonFormed lacks exactly one SonDissolved")
    if bad_sizes:
        problems.append(f"{bad_sizes} records have l_size + r_size != {actors} actors")
    return hashlib.sha256(text.encode("utf-8")).hexdigest(), problems


def peak_rss_mb(wl: Workload) -> float:
    """Resident-set high-water mark of a fresh process that runs the workload once."""
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_CHILD, wl.src, wl.path],
        capture_output=True,
        text=True,
        check=True,
        timeout=170,
    )
    return int(done.stdout.split()[-1]) * 1024 / 1e6


# -- end-to-end measurement --------------------------------------------------


@dataclass
class Measured:
    metrics: dict[str, tuple[float, str]]
    notes: dict[str, Any]
    tally: Tally
    stats: dict[str, Any]


def _stats(sha: str, metrics: dict[str, Any]) -> dict[str, Any]:
    keys = ("events_published", "sons_formed", "unresolved_requests", "mean_hop_count", "permanentifications", "prunings")
    return {"trace_sha256": sha, **{k: metrics[k] for k in keys}}


def _time_setup(path: str) -> tuple[float, float]:
    """Host seconds of one set-up, and the same in reference seconds."""
    gc.collect()
    before = [hostspeed.sample() for _ in range(SETUP_KERNEL_SAMPLES)]
    t0 = time.perf_counter()
    Simulation(load_scenario_file(path))
    host_s = time.perf_counter() - t0
    after = [hostspeed.sample() for _ in range(SETUP_KERNEL_SAMPLES)]
    return host_s, host_s * hostspeed.scale_of(before + after)


def measure_end_to_end(wl: Workload, seconds: float) -> Measured:
    """Repeat the whole run for ``seconds``; fold the repetitions tick by tick.

    The host's speed drifts by tens of percent over seconds, so every time is
    first put in reference seconds (see ``hostspeed``): each tick by the
    kernel samples around it, the drain by the last tick's scale, each
    set-up by the samples on either side of it. Then each tick's time is the
    median of that tick over the repetitions, and one run's time is the sum
    of those medians plus the median drain. Throughput and tick percentiles
    come from that median run. The host-second figures are printed as notes.
    """
    tally = Tally()
    setups: list[float] = []
    host_setups: list[float] = []
    steps: list[list[float]] = []
    drains: list[float] = []
    host_runs: list[int] = []
    run_scales: list[float] = []
    reference: tuple[str, dict[str, Any]] | None = None
    began = time.perf_counter()
    while True:
        rep_began = time.perf_counter()
        run = drive(wl.path)
        if reference is None:
            sha, problems = check_trace(run)
            reference = (sha, run.metrics)
            horizon, records = run.sim.horizon, len(run.sim.trace)
        else:
            # an identical trace passes the same checks as the first one
            sha = hashlib.sha256(write_trace(run.sim.trace).encode("utf-8")).hexdigest()
            problems = [] if (sha, run.metrics) == reference else ["run is not deterministic: trace differs from the first repetition"]
        tally.record(problems)
        scales = hostspeed.tick_scales(len(run.step_ns), run.kernel_at, run.kernel_ns)
        steps.append([ns * scale for ns, scale in zip(run.step_ns, scales)])
        drains.append(run.drain_ns * scales[-1])
        host_runs.append(run.run_ns)
        run_scales.append(statistics.median(scales))
        del run
        for _ in range(SETUPS_PER_REPETITION):
            host_s, ref_s = _time_setup(wl.path)
            host_setups.append(host_s)
            setups.append(ref_s)
        now = time.perf_counter()
        if now - began + (now - rep_began) > seconds:
            break
    while len(setups) < SETUP_REPS:
        host_s, ref_s = _time_setup(wl.path)
        host_setups.append(host_s)
        setups.append(ref_s)
    profile = [statistics.median(tick) for tick in zip(*steps)]
    run_s = (sum(profile) + statistics.median(drains)) / 1e9
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ticks_per_s": (horizon / run_s, "1/s"),
        "records_per_s": (records / run_s, "1/s"),
        "tick_us_p50": (percentile(profile, 50) / 1e3, "us"),
        "tick_us_p99": (percentile(profile, 99) / 1e3, "us"),
        "peak_rss_mb": (peak_rss_mb(wl), "MB"),
    }
    notes = {
        "repetitions": len(steps),
        "setup_samples": len(setups),
        "tick_samples": len(profile),
        "trace_records": records,
        "host_setup_s": statistics.median(host_setups),
        "host_ticks_per_s": horizon / (statistics.median(host_runs) / 1e9),
        "host_scale": statistics.median(run_scales),
    }
    return Measured(metrics, notes, tally, _stats(*reference))


# -- traced measurement ------------------------------------------------------


def cli_check(wl: Workload, seed: int, sha: str, metrics: dict[str, Any], work_dir: str) -> tuple[list[str], float, float]:
    """Run and report through ``fso_sim.cli.main`` in-process; compare with the library run."""
    trace_path = os.path.join(work_dir, f"{wl.name}-{wl.seed}.trace.jsonl")
    metrics_path = os.path.join(work_dir, f"{wl.name}-{wl.seed}.metrics.json")
    problems = []
    t0 = time.perf_counter()
    with redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--scenario", wl.path, "--seed", str(seed), "--trace", trace_path, "--metrics", metrics_path])
    run_s = time.perf_counter() - t0
    if code != 0:
        problems.append(f"fso-sim run exited {code}")
        return problems, run_s, 0.0
    with open(trace_path, "rb") as fh:
        if hashlib.sha256(fh.read()).hexdigest() != sha:
            problems.append("fso-sim run --trace wrote a different trace than the library run")
    with open(metrics_path, "r", encoding="utf-8") as fh:
        if json.load(fh) != metrics:
            problems.append("fso-sim run --metrics differs from the library run's metrics")
    out = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(out):
        code = cli.main(["report", "--trace", trace_path])
    report_s = time.perf_counter() - t0
    if code != 0:
        problems.append(f"fso-sim report exited {code}")
    elif json.loads(out.getvalue()) != metrics:
        problems.append("fso-sim report does not reproduce the run's metrics")
    return problems, run_s, report_s


def _per_tick_us(tr: Tracer, name: str, marks: array, first: int, last: int) -> float:
    """Mean host microseconds per tick spent in spans ``name`` over ticks [first, last)."""
    return sum(tr.durations_of(name, marks[first], marks[last])) / 1e3 / (last - first)


def layer_metrics(tr: Tracer, run: Run, run_lo: int, untraced_run_ns: int) -> dict[str, tuple[float, str]]:
    """Fold one traced run's spans and trace into the per-layer metrics."""
    t = tr.totals()
    zero = {"calls": 0, "total_ns": 0, "self_ns": 0}

    def calls(name: str) -> int:
        return t.get(name, zero)["calls"]

    def secs(name: str) -> float:
        return t.get(name, zero)["total_ns"] / 1e9

    sim = run.sim
    kinds = Counter(r.kind for r in sim.trace)
    registries = sim.holarchy.registries.values()
    resolve_ns = tr.durations_of("canon.resolve")
    resolves = len(resolve_ns)
    subtree_in_resolve = tr.child_ns("canon.resolve", "holarchy.subtree_atoms")
    horizon = sim.horizon
    quarter = horizon // 4
    phases = tr.phase_ns()
    out: dict[str, tuple[float, str]] = {
        "environment.sample_arrivals_s": (secs("environment.sample_arrivals"), "s"),
        "environment.arrivals": (kinds["EventPublished"], "count"),
        "holarchy.build_s": (secs("holarchy.build"), "s"),
        "holarchy.subtree_atoms_calls": (calls("holarchy.subtree_atoms"), "count"),
        "holarchy.subtree_atoms_s": (secs("holarchy.subtree_atoms"), "s"),
        "holarchy.chain_to_root_s": (secs("holarchy.chain_to_root"), "s"),
        "holarchy.topics_present_calls": (calls("holarchy.topics_present"), "count"),
        "holarchy.topics_present_s": (secs("holarchy.topics_present"), "s"),
        "holarchy.topics_present_us_per_tick_q1": (_per_tick_us(tr, "holarchy.topics_present", run.tick_marks, 0, quarter), "us"),
        "holarchy.topics_present_us_per_tick_q4": (
            _per_tick_us(tr, "holarchy.topics_present", run.tick_marks, horizon - quarter, horizon),
            "us",
        ),
        "holarchy.info_entries_end": (sum(len(r.info_entries) for r in registries), "count"),
        "holarchy.service_entries_end": (sum(len(r.service_entries) for r in registries), "count"),
        "activation.enroll_calls": (calls("activation.enroll"), "count"),
        "activation.enroll_s": (secs("activation.enroll"), "s"),
        "activation.release_s": (secs("activation.release"), "s"),
        "activation.busy_peak": (max((r.payload["r_size"] for r in sim.trace if "r_size" in r.payload), default=0), "count"),
        "canon.publish_calls": (calls("canon.publish"), "count"),
        "canon.publish_s": (secs("canon.publish"), "s"),
        "canon.resolve_calls": (resolves, "count"),
        "canon.resolve_s": (secs("canon.resolve"), "s"),
        "canon.resolve_self_s": (t.get("canon.resolve", zero)["self_ns"] / 1e9, "s"),
        "canon.resolve_us_p50": (percentile(resolve_ns, 50) / 1e3, "us"),
        "canon.resolve_us_p99": (percentile(resolve_ns, 99) / 1e3, "us"),
        "canon.resolve_subtree_atoms_share": (subtree_in_resolve / max(1, sum(resolve_ns)), "ratio"),
        "canon.hops_per_resolve": (kinds["ExceptionRaised"] / resolves, "hops"),
        "canon.resolve_success_ratio": (kinds["SonFormed"] / resolves, "ratio"),
        "canon.form_son_s": (secs("canon.form_son"), "s"),
        "canon.dissolve_son_s": (secs("canon.dissolve_son"), "s"),
        "evolution.record_outcome_s": (secs("evolution.record_outcome"), "s"),
        "evolution.permanentify_s": (secs("evolution.permanentify"), "s"),
        "evolution.prune_s": (secs("evolution.prune"), "s"),
        "evolution.promotions": (kinds["Permanentified"], "count"),
        "evolution.prunings": (kinds["Pruned"], "count"),
        "evolution.ledger_signatures": (len(sim.ledger.son_outcomes), "count"),
        "engine.self_s": ((run.run_ns - tr.top_level_ns(run_lo)) / 1e9, "s"),
        "engine.trace_records": (len(sim.trace), "count"),
        "engine.retry_attempts": (resolves - kinds["ActivityTriggered"], "count"),
        "engine.report_s": (secs("engine.report"), "s"),
        "engine.tracing_overhead": (run.run_ns / untraced_run_ns, "ratio"),
    }
    for phase in ("setup", "dissolve", "arrivals", "resolve", "retry", "evolution"):
        out[f"phase.{phase}_s"] = (phases[phase] / 1e9, "s")
    return out


def _timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - t0


def measure_layers(wl: Workload, seconds: float, work_dir: str) -> Measured:
    """Pairs of untraced and traced runs for ``seconds``, then the CLI check.

    Each per-layer number is the lower median over the traced runs, so it is
    one run's value as measured.
    """
    tally = Tally()
    samples: list[dict[str, tuple[float, str]]] = []
    reference: tuple[str, dict[str, Any]] | None = None
    began = time.perf_counter()
    while True:
        rep_began = time.perf_counter()
        plain = drive(wl.path)
        sha, problems = check_trace(plain)
        tally.record(problems)
        untraced_run_ns = plain.run_ns
        del plain

        tr = Tracer()
        with patched(tr):
            traced = drive(wl.path, tr)
            run_lo = traced.tick_marks[0]
        traced_sha, problems = check_trace(traced)
        if installed():
            problems.append(f"span wrappers left installed: {installed()}")
        if traced_sha != sha:
            problems.append("traced and untraced runs give different traces")
        if reference is None:
            reference = (sha, traced.metrics)
        elif (traced_sha, traced.metrics) != reference:
            problems.append("run is not deterministic: trace differs from the first repetition")
        tally.record(problems)
        samples.append(layer_metrics(tr, traced, run_lo, untraced_run_ns))
        now = time.perf_counter()
        if now - began + (now - rep_began) > seconds:
            break
        del traced, tr

    text, write_s = _timed(write_trace, traced.sim.trace)
    records, parse_s = _timed(parse_trace, text)
    del text, records
    problems, cli_run_s, cli_report_s = cli_check(wl, traced.sim.seed, reference[0], reference[1], work_dir)
    tally.record(problems)

    metrics = {
        name: (statistics.median_low(s[name][0] for s in samples), unit)
        for name, (_, unit) in samples[0].items()
    }
    metrics["engine.write_trace_s"] = (write_s, "s")
    metrics["engine.parse_trace_s"] = (parse_s, "s")
    metrics["cli.run_s"] = (cli_run_s, "s")
    metrics["cli.report_s"] = (cli_report_s, "s")
    notes = {"traced_repetitions": len(samples), "resolve_samples": samples[0]["canon.resolve_calls"][0]}
    return Measured(metrics, notes, tally, _stats(reference[0], reference[1]))
