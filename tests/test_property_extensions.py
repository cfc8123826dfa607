"""Property-based tests for the extension modules (update protocols,

sector coherence, attribution, traffic)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.attribution import attribute_misses
from repro.classify import DuboisClassifier
from repro.mem import BlockMap
from repro.protocols import (
    SectorProtocol,
    run_protocol,
    run_protocols,
    sector_sweep_sizes,
)
from repro.protocols.traffic import estimate_traffic
from repro.trace.events import LOAD, STORE
from repro.trace.trace import Trace

MAX_PROCS = 4
MAX_WORDS = 16


@st.composite
def traces(draw, max_events=50):
    n = draw(st.integers(1, max_events))
    nproc = draw(st.integers(1, MAX_PROCS))
    events = [
        (draw(st.integers(0, nproc - 1)),
         draw(st.sampled_from((LOAD, STORE))),
         draw(st.integers(0, MAX_WORDS - 1)))
        for _ in range(n)
    ]
    return Trace(events, nproc, validate=False)


block_sizes = st.sampled_from((8, 16, 32, 64))


@given(traces(), block_sizes)
@settings(max_examples=80, deadline=None)
def test_wu_misses_are_exactly_first_touches(trace, bb):
    """Write-update never invalidates, so its misses are exactly the
    (block, processor) first touches — at or below every other protocol."""
    bm = BlockMap(bb)
    wu = run_protocol("WU", trace, bb)
    first_touches = {(bm.block_of(a), p) for p, _, a in trace}
    assert wu.misses == len(first_touches)
    assert wu.breakdown.pts == 0
    assert wu.breakdown.pfs == 0
    mn = run_protocol("MIN", trace, bb)
    assert wu.misses <= mn.misses


@given(traces(), block_sizes)
@settings(max_examples=60, deadline=None)
def test_cu_bounded_by_wu_and_otf(trace, bb):
    res = run_protocols(trace, bb, ["WU", "CU", "OTF"])
    assert res["WU"].misses <= res["CU"].misses
    assert res["CU"].misses <= res["OTF"].misses


@given(traces(), block_sizes)
@settings(max_examples=50, deadline=None)
def test_sector_monotone_in_granularity(trace, bb):
    """Coarsening the coherence sub-block can only add misses, with MIN
    and OTF as the exact endpoints."""
    misses = []
    for sub in sector_sweep_sizes(bb):
        r = SectorProtocol(trace.num_procs, BlockMap(bb), sub).run(trace)
        misses.append(r.misses)
    assert misses == sorted(misses)
    assert misses[0] == run_protocol("MIN", trace, bb).misses
    assert misses[-1] == run_protocol("OTF", trace, bb).misses


@given(traces(), block_sizes)
@settings(max_examples=80, deadline=None)
def test_attribution_partitions_classifier_totals(trace, bb):
    """Attributed misses (over a one-region-per-word table plus the
    unmapped bucket) always partition the classifier's total."""
    result = attribute_misses(trace, bb, regions=[("low", 0, 8)])
    total = sum(bd.total for bd in result.by_region.values())
    want = DuboisClassifier.classify_trace(trace, BlockMap(bb)).total
    assert total == want


@given(traces(), block_sizes)
@settings(max_examples=60, deadline=None)
def test_traffic_estimates_non_negative_and_consistent(trace, bb):
    for name in ("MIN", "OTF", "WBWI", "WU"):
        r = run_protocol(name, trace, bb)
        t = estimate_traffic(r)
        assert t.fetch_bytes >= r.misses * bb
        assert t.total_bytes == t.data_bytes + t.control_bytes
        assert min(t.fetch_bytes, t.word_write_bytes, t.invalidation_bytes,
                   t.word_invalidation_bytes) >= 0
