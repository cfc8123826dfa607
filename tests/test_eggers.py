"""Unit tests for the Eggers/Jeremiassen classifier."""

import pytest

from repro.classify import EggersClassifier
from repro.errors import TraceError
from repro.mem import BlockMap
from repro.trace import Trace, TraceBuilder
from repro.trace.events import ACQUIRE, LOAD, RELEASE


def run(trace, block_bytes):
    return EggersClassifier.classify_trace(trace, BlockMap(block_bytes))


class TestPaperFigures:
    def test_figure3_column(self, fig3_trace):
        sb = run(fig3_trace, 8)
        assert sb.as_dict() == {"CM": 2, "TSM": 0, "FSM": 1, "data_refs": 7}

    def test_figure4_column(self, fig4_trace):
        sb = run(fig4_trace, 8)
        assert sb.as_dict() == {"CM": 2, "TSM": 0, "FSM": 2, "data_refs": 7}


class TestRules:
    def test_cold_per_block_per_processor(self):
        t = TraceBuilder(2).load(0, 0).load(0, 1).load(1, 0).build()
        sb = run(t, 8)
        assert sb.cold == 2  # one per processor; second P0 load hits

    def test_tsm_when_missed_word_modified_since_invalidation(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 0)    # the invalidating reference (word 0)
             .load(0, 0)     # misses on word 0: TSM
             .build())
        sb = run(t, 8)
        assert sb.true_sharing == 1

    def test_invalidating_reference_is_inclusive(self):
        """'modified since (and including) the reference causing the
        invalidation' — the invalidating store's own word counts."""
        t = TraceBuilder(2).load(0, 1).store(1, 1).load(0, 1).build()
        assert run(t, 8).true_sharing == 1

    def test_fsm_when_missed_word_not_in_window(self):
        t = (TraceBuilder(2)
             .load(0, 1)
             .store(1, 0)    # invalidates P0; window = {word 0}
             .load(0, 1)     # misses on word 1: FSM
             .build())
        sb = run(t, 8)
        assert sb.false_sharing == 1

    def test_window_accumulates_while_invalid(self):
        t = (TraceBuilder(2)
             .load(0, 1)
             .store(1, 0)    # invalidates; window {0}
             .store(1, 1)    # still invalid; window {0,1}
             .load(0, 1)     # word 1 in window: TSM
             .build())
        assert run(t, 8).true_sharing == 1

    def test_window_resets_after_refetch(self):
        t = (TraceBuilder(2)
             .load(0, 0)
             .store(1, 1)    # window {1}
             .load(0, 0)     # FSM; refetch clears window
             .store(1, 1)    # new window {1}
             .load(0, 0)     # FSM again (word 0 not written since)
             .build())
        sb = run(t, 8)
        assert sb.false_sharing == 2 and sb.true_sharing == 0

    def test_misses_classified_at_miss_time_not_lifetime_end(self):
        """Eggers ignores later consumption — the difference from ours."""
        t = (TraceBuilder(2)
             .load(0, 0).load(0, 1)
             .store(1, 1)    # invalidates; window {1}
             .load(0, 0)     # FSM under Eggers...
             .load(0, 1)     # ...even though the new word 1 is used here
             .build())
        sb = run(t, 8)
        assert sb.false_sharing == 1 and sb.true_sharing == 0

    def test_ignores_sync_via_event(self):
        t = Trace([(0, ACQUIRE, 0), (0, LOAD, 0), (0, RELEASE, 0)], 2)
        bd = EggersClassifier.classify_trace(t, BlockMap(4))
        assert bd.data_refs == 1 and bd.total == 1


class TestAPI:
    def test_access_rejects_sync(self):
        clf = EggersClassifier(1, BlockMap(4))
        with pytest.raises(TraceError):
            clf.access(0, ACQUIRE, 0)

    def test_double_finish_rejected(self):
        clf = EggersClassifier(1, BlockMap(4))
        clf.finish()
        with pytest.raises(TraceError):
            clf.finish()

    def test_nonpositive_procs_rejected(self):
        with pytest.raises(TraceError):
            EggersClassifier(0, BlockMap(4))
