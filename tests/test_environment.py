"""Event sources: reproducible streams on the integer tick line."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fso_sim import environment
from fso_sim.engine import load_scenario_file
from fso_sim.environment import (
    EventSource,
    PeriodicProcess,
    PoissonProcess,
    ScriptedProcess,
    sample_arrivals,
    source_state,
)
from fso_sim.holarchy import InformationItem

from oracles import Rng

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# the most steps one call of the lane kernel draws
CAP = environment._LANES


def rng_times(rng, rate, horizon):
    """The arrival times before ``horizon`` of a Poisson stream whose gaps ``rng`` draws, one ``Rng.random`` each.

    A gap that overflows to infinity ends the stream.
    """
    t = 0
    while True:
        gap = -math.log1p(-rng.random()) / rate
        if not math.isfinite(gap):
            return
        t += max(1, math.floor(gap + 0.5))
        if t >= horizon:
            return
        yield t


def test_rng_streams_are_reproducible():
    a = [Rng(42).next_u64() for _ in range(5)]
    b = [Rng(42).next_u64() for _ in range(5)]
    assert a == b
    assert [Rng(43).next_u64() for _ in range(5)] != a


def test_rng_child_streams_are_independent():
    base = Rng(7)
    c0 = base.child(0)
    c1 = base.child(1)
    s0 = [c0.next_u64() for _ in range(4)]
    s1 = [c1.next_u64() for _ in range(4)]
    assert s0 != s1
    again = base.child(0)
    assert [again.next_u64() for _ in range(4)] == s0


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=50)
def test_rng_uniform_range(seed):
    r = Rng(seed)
    for _ in range(20):
        u = r.random()
        assert 0.0 <= u < 1.0


@given(st.integers(-(2**70), 2**70), st.integers(0, 1000))
@settings(max_examples=200)
def test_source_state_is_where_the_reference_child_stream_starts(seed, index):
    assert source_state(seed, index) == Rng(seed).child(index)._state


def test_poisson_gaps_are_positive_integers():
    times = PoissonProcess(rate=0.3).arrivals(1, 1000)
    gaps = [b - a for a, b in zip([0] + times, times)]
    assert len(times) > 200
    assert all(isinstance(t, int) for t in times)
    assert all(g >= 1 for g in gaps)


@pytest.mark.parametrize("rate", [0.1, 0.2, 7.0, 1e-310])
def test_poisson_gaps_match_the_rng_reference(rate):
    # the reference draws each gap through Rng.random; a gap that overflows
    # to infinity ends both streams
    expected = list(itertools.islice(rng_times(Rng(1).child(0), rate, math.inf), 10_000))
    # the horizon just past the 10,000th arrival, or none for a stream that ends first
    horizon = expected[-1] + 1 if len(expected) == 10_000 else math.inf
    times = PoissonProcess(rate=rate).arrivals(source_state(seed=1, index=0), horizon)
    assert times == expected
    if rate == 1e-310:
        assert len(times) < 10_000


def test_poisson_rejects_bad_rate():
    with pytest.raises(ValueError):
        PoissonProcess(rate=0.0)


@pytest.mark.parametrize("rate", [5e-324, 1e-310])
def test_poisson_gap_overflowing_to_infinity_ends_the_stream(rate):
    # the rate passes the positivity check, but Exp(rate) overflows, so no
    # arrival can come before any finite horizon
    process = PoissonProcess(rate=rate)
    assert process.arrivals(source_state(seed=1, index=0), math.inf) == []
    assert sample_arrivals((EventSource("a", 1, process),), 10_000, seed=1) == []


@pytest.mark.parametrize("horizon", [20, 0])
@pytest.mark.parametrize("rate", [1.7976931348623157e308, math.inf, 5e-324, 1e-310])
def test_extreme_rates_and_horizons_are_pinned(rate, horizon):
    # the schema's largest rate, and a hand-built infinite one, publish on
    # every tick; a rate whose first gap overflows publishes nothing; no
    # source publishes before a horizon of 0
    arrivals = sample_arrivals((EventSource("a", 1, PoissonProcess(rate=rate)),), horizon, seed=1)
    every_tick = rate > 1
    assert [a.published_at for a in arrivals] == (list(range(1, horizon)) if every_tick else [])
    if every_tick:
        assert PoissonProcess(rate=rate).arrivals(0, 6) == [1, 2, 3, 4, 5]


def test_periodic_and_scripted_are_exact():
    periodic = PeriodicProcess(period=4, offset=3)
    assert list(periodic.arrivals(0, 16)) == [3, 7, 11, 15]
    assert list(periodic.arrivals(0, 15)) == [3, 7, 11]
    # no tick at or past the offset comes before the horizon
    assert [list(periodic.arrivals(0, h)) for h in (3, 0, -5)] == [[], [], []]
    scripted = ScriptedProcess(times=(2, 5, 5, 9))
    assert list(scripted.arrivals(0, 10)) == [2, 5, 5, 9]
    # a time on the horizon is not before it, repeated or not
    assert list(scripted.arrivals(0, 9)) == [2, 5, 5]
    assert list(scripted.arrivals(0, 5)) == [2]
    assert [list(scripted.arrivals(0, h)) for h in (2, 0, -5)] == [[], [], []]
    with pytest.raises(ValueError):
        ScriptedProcess(times=(5, 2))
    with pytest.raises(ValueError):
        PeriodicProcess(period=0)


def test_sample_arrivals_merges_by_time_then_source():
    sources = (
        EventSource("a", 10, ScriptedProcess(times=(2, 6))),
        EventSource("b", 11, ScriptedProcess(times=(2, 4))),
    )
    arrivals = sample_arrivals(sources, 10, seed=0)
    assert [(a.published_at, a.source_index, a.topic) for a in arrivals] == [
        (2, 0, "a"),
        (2, 1, "b"),
        (4, 1, "b"),
        (6, 0, "a"),
    ]
    assert all(a.source in (10, 11) for a in arrivals)


def test_sample_window_is_half_open():
    sources = (EventSource("a", 1, ScriptedProcess(times=(0, 5, 9, 10))),)
    times = [a.published_at for a in sample_arrivals(sources, 10, seed=3)]
    assert times == [0, 5, 9]


def test_adding_a_source_does_not_shift_others():
    one = (EventSource("a", 1, PoissonProcess(rate=0.2)),)
    two = (
        EventSource("a", 1, PoissonProcess(rate=0.2)),
        EventSource("b", 1, PoissonProcess(rate=0.4)),
    )
    first = [a.published_at for a in sample_arrivals(one, 500, seed=11)]
    both = [a.published_at for a in sample_arrivals(two, 500, seed=11) if a.source_index == 0]
    assert first == both


def test_poisson_mean_gap_matches_nearest_tick_rounding():
    # snapping Exp(rate) to the nearest tick with a floor of one gives
    # mean exp(-rate/2)/(1-exp(-rate)) + (1-exp(-rate/2)); spot check at 0.2
    rate = 0.2
    expected = math.exp(-rate / 2) / (1 - math.exp(-rate)) + (1 - math.exp(-rate / 2))
    sources = (EventSource("a", 1, PoissonProcess(rate=rate)),)
    times = [a.published_at for a in sample_arrivals(sources, 200_000, seed=123)]
    gaps = [b - a for a, b in zip([0] + times, times)]
    mean = sum(gaps) / len(gaps)
    assert expected == pytest.approx(5.0868, abs=2e-4)
    assert mean == pytest.approx(expected, rel=0.02)


@pytest.mark.parametrize(
    "seed,digest",
    [
        (1, "93ae3d509fdcb25070ba7d104c956813983fd7493f715320093e95214e0ffa7e"),
        (4242, "3123a1a0141fe5ba242743bb64bf406cf1bd8bcb32409682d5937bcf325a67c4"),
    ],
    ids=["seed_1", "seed_4242"],
)
def test_sample_arrivals_output_is_pinned(seed, digest):
    # two Poisson sources that tie on some ticks, a periodic one, a scripted
    # one with a repeated tick and one whose first gap overflows
    sources = (
        EventSource("a", 10, PoissonProcess(rate=0.5)),
        EventSource("b", 11, PoissonProcess(rate=0.7)),
        EventSource("c", 12, PeriodicProcess(period=7, offset=3)),
        EventSource("d", 13, ScriptedProcess(times=(2, 5, 5, 9))),
        EventSource("e", 14, PoissonProcess(rate=5e-324)),
    )
    rows = [
        (a.published_at, a.source_index, a.topic, a.source, a.published_at)
        for a in sample_arrivals(sources, 2000, seed)
    ]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == digest


def reference_arrivals(sources, horizon, seed):
    """Each source's items at 0 <= t < horizon, from its process's definition, sorted.

    A Poisson source draws its gaps from ``Rng(seed).child(index)``, one
    ``Rng.random`` per gap, so the reference shares no code with the lane
    kernel.
    """
    out = []
    for index, source in enumerate(sources):
        process = source.process
        if isinstance(process, PoissonProcess):
            times = rng_times(Rng(seed).child(index), process.rate, horizon)
        elif isinstance(process, PeriodicProcess):
            times = range(process.offset, horizon, process.period)
        else:
            times = [t for t in process.times if t < horizon]
        out += [InformationItem(t, index, source.injection_soc, source.topic) for t in times]
    return sorted(out)


processes = st.one_of(
    # the two smallest rates overflow their first gap, so their streams are empty
    st.builds(PoissonProcess, st.sampled_from([5e-324, 1e-310, 0.05, 0.2, 1.0, 7.0]) | st.floats(1e-3, 20.0)),
    st.builds(PeriodicProcess, st.integers(1, 40), st.integers(0, 300)),
    # repeated ticks tie on (time, source index)
    st.lists(st.integers(0, 300), max_size=12).map(lambda ts: ScriptedProcess(tuple(sorted(ts + ts[:3])))),
)
event_sources = st.builds(EventSource, st.sampled_from(["a", "b", "c"]), st.integers(0, 20), processes)


@given(
    st.lists(event_sources, max_size=5).map(tuple),
    # a horizon of 0 or less has no tick before it
    st.integers(-5, 600),
    st.integers(0, 2**64 - 1),
)
@settings(max_examples=300, deadline=None)
def test_sample_arrivals_matches_the_reference(sources, horizon, seed):
    arrivals = sample_arrivals(sources, horizon, seed)
    assert arrivals == reference_arrivals(sources, horizon, seed)
    assert all(type(a) is InformationItem for a in arrivals)


@given(st.integers(0, 2**64 - 1))
@settings(max_examples=15, deadline=None)
@example(0)
@example(2**64 - 1)
@pytest.mark.parametrize("lanes", [1, CAP - 1, CAP])
def test_the_lane_kernel_draws_what_the_rng_draws(lanes, state):
    rng = Rng(state)
    assert list(environment._outputs(state, lanes)) == [rng.next_u64() >> 11 for _ in range(lanes)]


def chunk_sizes(monkeypatch) -> list[int]:
    """The steps each later call of the lane kernel draws, one entry per call."""
    sizes = []
    outputs = environment._outputs

    def counted(state, n):
        sizes.append(n)
        return outputs(state, n)

    monkeypatch.setattr(environment, "_outputs", counted)
    return sizes


@given(st.integers(0, 2**64 - 1), st.integers(0, 50))
@settings(max_examples=5, deadline=None)
@pytest.mark.parametrize("count", [1, CAP - 1, CAP, CAP + 1])
def test_a_poisson_stream_goes_on_from_its_state_after_a_chunk(count, seed, index):
    # a chunk draws at most CAP steps, so a stream with CAP arrivals or more
    # before the horizon goes on into a second chunk
    expected = list(itertools.islice(rng_times(Rng(seed).child(index), 0.5, math.inf), count))
    with pytest.MonkeyPatch.context() as monkeypatch:
        sizes = chunk_sizes(monkeypatch)
        times = PoissonProcess(rate=0.5).arrivals(source_state(seed, index), expected[-1] + 1)
    assert times == expected
    assert max(sizes) <= CAP and len(sizes) >= (2 if count >= CAP else 1)


@pytest.mark.parametrize("seed", [1, 4242])
def test_sample_arrivals_over_many_chunks_matches_the_reference(seed, monkeypatch):
    # each fast stream is drawn in several chunks of at most CAP steps
    sources = tuple(EventSource("a", 1, PoissonProcess(rate=rate)) for rate in (1.0, 1.0, 0.2))
    sizes = chunk_sizes(monkeypatch)
    arrivals = sample_arrivals(sources, 3000, seed)
    assert max(sizes) <= CAP and len(sizes) > 2 * len(sources)
    assert arrivals == reference_arrivals(sources, 3000, seed)


def test_sample_arrivals_makes_a_few_python_calls_per_source_and_chunk(monkeypatch):
    # measured on Python 3.11: 20 calls for nine_actors.json's one source in
    # eight chunks, that is sample_arrivals, 3 per source (source_state,
    # _mix and arrivals) and 2 per chunk (_chunk and _outputs); the budget
    # is that plus 10%. A Python-level call per arrival, as a generator step
    # or a NamedTuple constructor makes, would add thousands, and so would a
    # chunk per arrival.
    sources = load_scenario_file(str(SCENARIOS / "nine_actors.json")).sources
    sizes = chunk_sizes(monkeypatch)
    expected = sample_arrivals(sources, 20_000, seed=7)
    monkeypatch.undo()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    # a collection could run other code's finalizers and callbacks mid-count
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        arrivals = sample_arrivals(sources, 20_000, seed=7)
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    assert arrivals == expected and len(arrivals) > 3000
    chunks = len(sizes)
    assert chunks <= len(arrivals) // CAP + 2 * len(sources)
    assert calls <= 1.1 * (1 + 3 * len(sources) + 2 * chunks)
