"""Unit tests for per-data-structure miss attribution."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.analysis.attribution import (
    RegionTable,
    UNMAPPED,
    attribute_misses,
)
from repro.classify import DuboisClassifier, MissClass, classify
from repro.errors import ConfigError
from repro.mem import BlockMap
from repro.trace import TraceBuilder
from repro.trace.events import LOAD, STORE
from repro.trace.trace import Trace


class TestRegionTable:
    def test_lookup(self):
        table = RegionTable([("a", 0, 4), ("b", 10, 2)])
        assert table.name_of(0) == "a"
        assert table.name_of(3) == "a"
        assert table.name_of(4) == UNMAPPED
        assert table.name_of(10) == "b"
        assert table.name_of(12) == UNMAPPED

    def test_sorted_regardless_of_input_order(self):
        table = RegionTable([("b", 10, 2), ("a", 0, 4)])
        assert table.names == ["a", "b"]

    def test_overlap_rejected(self):
        with pytest.raises(ConfigError):
            RegionTable([("a", 0, 4), ("b", 3, 4)])

    def test_empty_region_rejected(self):
        with pytest.raises(ConfigError):
            RegionTable([("a", 0, 0)])

    def test_from_trace_requires_meta(self):
        t = TraceBuilder(1).load(0, 0).build()
        with pytest.raises(ConfigError):
            RegionTable.from_trace(t)


class TestAttribution:
    def test_counts_sum_to_classifier_totals(self, mp3d_trace):
        result = attribute_misses(mp3d_trace, 32)
        total = sum(bd.total for bd in result.by_region.values())
        assert total == classify(mp3d_trace, 32).total

    def test_all_misses_mapped_for_workloads(self, mp3d_trace):
        """Workload generators allocate everything through the allocator,
        so no miss should be unattributable."""
        result = attribute_misses(mp3d_trace, 32)
        assert UNMAPPED not in result.by_region

    def test_explicit_regions(self):
        t = (TraceBuilder(2)
             .store(0, 0).store(1, 1)   # false sharing in 'hot'
             .store(0, 0).store(1, 1)
             .load(0, 8)                # private in 'cold'
             .build())
        result = attribute_misses(t, 8, regions=[("hot", 0, 2),
                                                 ("cold", 8, 1)])
        assert result.by_region["hot"].pfs > 0
        assert result.by_region["cold"].pfs == 0
        assert result.by_region["cold"].pc == 1

    def test_top_false_sharers_ranked(self, mp3d_trace):
        result = attribute_misses(mp3d_trace, 64)
        top = result.top_false_sharers()
        assert top == sorted(top, key=lambda kv: -kv[1])
        assert all(count > 0 for _, count in top)

    def test_mp3d_false_sharing_lands_on_particles_and_cells(self, mp3d_trace):
        """The paper's section 6 attribution: 'False sharing misses are
        due to modifications of particles and of space cells.'"""
        result = attribute_misses(mp3d_trace, 64)
        pfs_by_family = {}
        for name, bd in result.by_region.items():
            family = name.split(".")[1].split("[")[0] if "." in name else name
            pfs_by_family[family] = pfs_by_family.get(family, 0) + bd.pfs
        data_pfs = pfs_by_family.get("particle", 0) + pfs_by_family.get("cell", 0)
        total_pfs = sum(pfs_by_family.values())
        assert data_pfs > 0.5 * total_pfs

    def test_format_renders_table(self, mp3d_trace):
        text = attribute_misses(mp3d_trace, 32).format()
        assert "region" in text and "PFS" in text

    def test_unmapped_bucket_used_for_unknown_words(self):
        t = TraceBuilder(1).load(0, 999).build()
        result = attribute_misses(t, 8, regions=[("a", 0, 4)])
        assert result.by_region[UNMAPPED].pc == 1



class _ClassificationLog(DuboisClassifier):
    """The transliteration, logging ``(missed word, class)`` for each miss
    in the order it classifies them (at the end of each lifetime)."""

    def __init__(self, num_procs, block_map):
        super().__init__(num_procs, block_map)
        self.start_word = {}
        self.log = []

    def _read_action(self, proc, word_addr):
        block = self.block_map.block_of(word_addr)
        if not self._present.get(block, 0) & (1 << proc):
            self.start_word[(block, proc)] = word_addr
        super()._read_action(proc, word_addr)

    def _classify_mask(self, block, mask):
        m = mask
        while m:  # one processor at a time, in the same (bit) order
            low = m & -m
            m ^= low
            before = dict(self._counts)
            super()._classify_mask(block, low)
            (mclass,) = [c for c in before if self._counts[c] != before[c]]
            word = self.start_word[(block, low.bit_length() - 1)]
            self.log.append((word, mclass))


@st.composite
def word_traces(draw):
    nproc = draw(st.integers(1, 4))
    events = [(draw(st.integers(0, nproc - 1)),
               draw(st.sampled_from((LOAD, STORE))),
               draw(st.integers(0, 15)))
              for _ in range(draw(st.integers(1, 60)))]
    return Trace(events, nproc, validate=False)


@given(word_traces(), st.sampled_from((4, 8, 16, 64)))
@settings(max_examples=100, deadline=None)
def test_regions_match_transliteration_in_classification_order(trace, bb):
    """One region per word: each region's counts and the region order
    (by first classified miss) match the transliteration's miss stream."""
    log = _ClassificationLog(trace.num_procs, BlockMap(bb))
    for proc, op, addr in trace:
        log.access(proc, op, addr)
    log.finish()
    expected = {}
    for word, mclass in log.log:
        per = expected.setdefault(f"w{word}", dict.fromkeys(MissClass, 0))
        per[mclass] += 1
    result = attribute_misses(trace, bb, [(f"w{w}", w, 1) for w in range(16)])
    assert list(result.by_region) == list(expected)
    for name, bd in result.by_region.items():
        assert [bd.pc, bd.cts, bd.cfs, bd.pts, bd.pfs] == \
            list(expected[name].values()), name
        assert bd.data_refs == len(trace)
