"""Unit tests for the Torrellas/Lam/Hennessy classifier."""

import pytest

from repro.classify import TorrellasClassifier
from repro.errors import TraceError
from repro.mem import BlockMap
from repro.trace import Trace, TraceBuilder
from repro.trace.events import ACQUIRE, LOAD, RELEASE


def run(trace, block_bytes):
    return TorrellasClassifier.classify_trace(trace, BlockMap(block_bytes))


class TestPaperFigures:
    def test_figure3_column(self, fig3_trace):
        sb = run(fig3_trace, 8)
        assert sb.as_dict() == {"CM": 2, "TSM": 0, "FSM": 1, "data_refs": 7}

    def test_figure4_column(self, fig4_trace):
        sb = run(fig4_trace, 8)
        assert sb.as_dict() == {"CM": 3, "TSM": 1, "FSM": 0, "data_refs": 7}


class TestRules:
    def test_cold_is_word_granular(self):
        """A block re-fetch touching a never-before-referenced word counts
        as a cold miss — the inflation the paper criticizes."""
        t = (TraceBuilder(2)
             .load(0, 0)      # P0 cold (block + word 0)
             .store(1, 1)     # invalidates P0's block
             .load(0, 1)      # miss; first ref to word 1 -> CM again!
             .build())
        sb = run(t, 8)
        assert sb.cold == 3

    def test_tsm_needs_word_system_miss(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 0)     # invalidates block AND word copies
             .load(0, 0)      # word accessed before + word-system miss: TSM
             .build())
        assert run(t, 4).true_sharing == 1

    def test_fsm_when_word_system_hits(self):
        t = (TraceBuilder(2)
             .load(0, 0).load(0, 1)
             .store(1, 0)     # block invalidated; word 1 copy still valid
             .load(0, 1)      # block miss, word-system hit: FSM
             .build())
        sb = run(t, 8)
        assert sb.false_sharing == 1

    def test_word_system_tracks_all_references_not_just_misses(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .load(0, 1)      # block hit, but word-1 copy established
             .store(1, 2)     # block invalidated (word 2 foreign)
             .load(0, 1)      # block miss; word 1 valid in word system: FSM
             .build())
        assert run(t, 16).false_sharing == 1

    def test_prefetch_blindspot(self):
        """The paper's Figure 3 argument: a miss that brings a value used
        two references later is called FSM by this scheme."""
        t = (TraceBuilder(2)
             .load(0, 0).load(0, 1)
             .store(1, 0)
             .load(0, 1)      # FSM per Torrellas...
             .load(0, 0)      # ...though the new word 0 is consumed here
             .build())
        sb = run(t, 8)
        assert sb.false_sharing == 1
        assert sb.true_sharing == 0

    def test_non_iterative_program_all_cold(self):
        """Single-touch programs (matrix multiply, FFT): every miss has a
        first-touched word, so everything is cold under Torrellas."""
        t = (TraceBuilder(2)
             .store(0, 0).store(0, 1)
             .load(1, 0).load(1, 1)
             .build())
        sb = run(t, 4)
        assert sb.cold == sb.total


class TestAPI:
    def test_sync_ignored_via_event(self):
        t = Trace([(0, ACQUIRE, 0), (0, LOAD, 0), (0, RELEASE, 0)], 1)
        bd = TorrellasClassifier.classify_trace(t, BlockMap(4))
        assert bd.data_refs == 1 and bd.total == 1

    def test_access_rejects_sync(self):
        clf = TorrellasClassifier(1, BlockMap(4))
        with pytest.raises(TraceError):
            clf.access(0, ACQUIRE, 0)

    def test_double_finish_rejected(self):
        clf = TorrellasClassifier(1, BlockMap(4))
        clf.finish()
        with pytest.raises(TraceError):
            clf.finish()

    def test_nonpositive_procs_rejected(self):
        with pytest.raises(TraceError):
            TorrellasClassifier(0, BlockMap(4))
