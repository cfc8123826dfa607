"""Property-based tests for trace infrastructure (I/O, interleaving,

race detection)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.trace.interleave import random_interleave, reinterleave
from repro.trace.io import dumps_text, loads_text
from repro.trace.trace import Trace
from repro.trace.validate import check_races


@st.composite
def traces(draw, max_events=40):
    n = draw(st.integers(0, max_events))
    nproc = draw(st.integers(1, 4))
    events = [
        (draw(st.integers(0, nproc - 1)),
         draw(st.sampled_from((LOAD, STORE, ACQUIRE, RELEASE))),
         draw(st.integers(0, 31)))
        for _ in range(n)
    ]
    return Trace(events, nproc, name=draw(st.sampled_from(("", "t", "x-1"))),
                 validate=False)


@given(traces())
@settings(max_examples=120, deadline=None)
def test_text_roundtrip(trace):
    assert loads_text(dumps_text(trace)) == trace


@given(traces(), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_reinterleave_preserves_streams(trace, seed):
    out = reinterleave(trace, seed=seed)
    assert out.per_processor() == trace.per_processor()
    assert len(out) == len(trace)


@given(traces())
@settings(max_examples=80, deadline=None)
def test_counts_sum_to_length(trace):
    c = trace.counts()
    assert c.total == len(trace)
    assert c.data + c.acquires + c.releases == len(trace)


@given(traces())
@settings(max_examples=80, deadline=None)
def test_per_processor_partition(trace):
    streams = trace.per_processor()
    assert sum(len(s) for s in streams.values()) == len(trace)
    for p, stream in streams.items():
        assert all(ev[0] == p for ev in stream)


@given(traces())
@settings(max_examples=60, deadline=None)
def test_race_checker_is_deterministic_and_bounded(trace):
    r1 = check_races(trace)
    r2 = check_races(trace)
    assert r1.is_race_free == r2.is_race_free
    assert len(r1.races) == len(r2.races) <= 16


@given(traces())
@settings(max_examples=60, deadline=None)
def test_single_processor_traces_are_race_free(trace):
    events = [(0, op, addr) for _, op, addr in trace]
    single = Trace(events, 1, validate=False)
    assert check_races(single).is_race_free


@given(traces())
@settings(max_examples=60, deadline=None)
def test_read_only_traces_are_race_free(trace):
    events = [(p, LOAD, a) for p, op, a in trace]
    loads_only = Trace(events, trace.num_procs, validate=False)
    assert check_races(loads_only).is_race_free


@given(traces(), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_sample_is_subsequence(trace, tenth):
    fraction = tenth / 10.0
    sampled = trace.sample(fraction, granularity=8)
    it = iter(trace)
    for ev in sampled:
        for candidate in it:
            if candidate == ev:
                break
        else:
            raise AssertionError("sampled event not in order in original")
