"""Unit tests for the Appendix A classifier, including the paper's

hand-worked Figures 1-4.

Every hand-built case runs the transliteration (:class:`DuboisClassifier`)
and checks that the public :func:`repro.classify.classify` (the vectorized
kernel) agrees with it."""

import pytest

from repro.classify import DuboisClassifier, MissClass
from repro.classify import classify as kernel_classify
from repro.errors import TraceError
from repro.kernels.classifiers import (
    DUBOIS_CLASSES,
    KernelContext,
    dubois_lifetime_classes,
)
from repro.mem import BlockMap
from repro.trace import Trace, TraceBuilder
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE


def classify(trace, block_bytes):
    """The transliteration's breakdown, cross-checked against the kernel."""
    bd = DuboisClassifier.classify_trace(trace, BlockMap(block_bytes))
    assert kernel_classify(trace, block_bytes) == bd
    return bd


class TestPaperFigure1:
    """Fig 1: block-size effect — CTS misses convert to PTS misses."""

    def test_one_word_blocks(self, fig1_trace):
        bd = classify(fig1_trace, 4)
        assert (bd.pc, bd.cts, bd.cfs, bd.pts, bd.pfs) == (2, 2, 0, 0, 0)

    def test_two_word_blocks(self, fig1_trace):
        bd = classify(fig1_trace, 8)
        assert (bd.pc, bd.cts, bd.cfs, bd.pts, bd.pfs) == (1, 1, 0, 1, 0)

    def test_essential_not_increasing(self, fig1_trace):
        assert classify(fig1_trace, 8).essential \
            <= classify(fig1_trace, 4).essential

    def test_pts_can_increase_with_block_size(self, fig1_trace):
        """The paper's point: PTS alone may grow when blocks grow."""
        assert classify(fig1_trace, 8).pts > classify(fig1_trace, 4).pts


class TestPaperFigure2:
    """Fig 2: interleaving changes the essential miss count."""

    def test_delayed_store_creates_extra_essential_miss(self, fig2_traces):
        eager, delayed = fig2_traces
        assert classify(eager, 8).essential == 2
        assert classify(delayed, 8).essential == 3


class TestPaperFigure3:
    """Fig 3: CFS example / the miss both prior schemes call false."""

    def test_ours_column(self, fig3_trace):
        bd = classify(fig3_trace, 8)
        assert (bd.pc, bd.cts, bd.cfs, bd.pts, bd.pfs) == (1, 0, 1, 1, 0)


class TestPaperFigure4:
    """Fig 4: our column of the Eggers/Torrellas contrast."""

    def test_ours_column(self, fig4_trace):
        bd = classify(fig4_trace, 8)
        assert (bd.pc, bd.cts, bd.cfs, bd.pts, bd.pfs) == (2, 0, 0, 1, 1)


class TestBasics:
    def test_single_processor_only_cold(self):
        t = TraceBuilder(1).stores(0, range(8)).loads(0, range(8)).build()
        bd = classify(t, 16)
        assert bd.total == bd.pc == 2
        assert bd.data_refs == 16

    def test_write_by_other_processor_invalidates(self):
        t = TraceBuilder(2).load(0, 0).store(1, 0).load(0, 0).build()
        bd = classify(t, 4)
        assert bd.pts == 1  # P0's second load communicates P1's value

    def test_store_counts_as_access(self):
        """Paper: 'an access can be a load or a store'."""
        t = TraceBuilder(2).store(0, 0).load(1, 1).store(1, 0).build()
        bd = classify(t, 8)
        # P1's cold lifetime becomes essential via its *store* to word 0
        assert bd.cts == 1

    def test_writer_own_value_not_communication(self):
        t = TraceBuilder(2).store(0, 0).load(0, 0).load(0, 0).build()
        bd = classify(t, 4)
        assert bd.pts == 0 and bd.total == 1

    def test_lifetimes_classified_at_end_of_simulation(self):
        t = TraceBuilder(2).store(0, 0).load(1, 0).build()
        bd = classify(t, 4)
        assert bd.total == 2  # both live lifetimes classified at finish

    def test_sync_events_ignored(self):
        t = (TraceBuilder(2).store(0, 0).acquire(1, 100).load(1, 0)
             .release(1, 100).build())
        bd = classify(t, 4)
        assert bd.data_refs == 2

    def test_useless_miss_detected(self):
        # P0 and P1 touch different words of one block; P1 re-misses on its
        # own word after P0's store: pure false sharing.
        t = (TraceBuilder(2)
             .store(1, 1)  # P1 cold
             .store(0, 0)  # P0 cold (invalidates P1)
             .load(1, 1)   # P1 misses again, reads only its own word
             .build())
        bd = classify(t, 8)
        assert bd.pfs == 1

    def test_c_flags_cleared_blockwise_on_detection(self):
        # After an essential detection, other modified words of the same
        # block are considered delivered: no second PTS for word 1.
        t = (TraceBuilder(2)
             .load(0, 0).load(0, 1)    # P0 cold
             .store(1, 0).store(1, 1)  # P1 cold + invalidate P0
             .load(0, 0)               # PTS (communicates words 0 and 1)
             .store(1, 2)              # invalidate P0 again (word 2 foreign)
             .load(0, 1)               # word 1 already delivered -> PFS
             .build())
        bd = classify(t, 16)
        assert bd.pts == 1
        assert bd.pfs == 1


class TestColdRefinement:
    def test_pc_requires_unmodified_block(self):
        t = TraceBuilder(2).load(0, 0).build()
        assert classify(t, 4).pc == 1

    def test_cfs_dirty_block_value_unused(self):
        t = TraceBuilder(2).store(0, 1).load(1, 0).build()
        bd = classify(t, 8)
        assert bd.cfs == 1 and bd.cts == 0

    def test_cts_dirty_block_value_used(self):
        t = TraceBuilder(2).store(0, 1).load(1, 0).load(1, 1).build()
        bd = classify(t, 8)
        assert bd.cts == 1 and bd.cfs == 0

    def test_cold_subtype_depends_on_state_at_fetch(self):
        # P1 fetches a CLEAN block; P0 modifies it later (ending the
        # lifetime); the cold miss stays PC.
        t = TraceBuilder(2).load(1, 0).store(0, 1).load(1, 1).build()
        bd = classify(t, 8)
        assert bd.pc >= 1
        assert bd.cfs == 0


class TestStreamingAPI:
    def test_access_and_finish(self):
        clf = DuboisClassifier(2, BlockMap(4))
        clf.access(0, STORE, 0)
        clf.access(1, LOAD, 0)
        bd = clf.finish()
        assert bd.total == 2

    def test_event_ignores_sync(self):
        t = Trace([(0, ACQUIRE, 9), (0, LOAD, 0), (0, RELEASE, 9)], 2)
        bd = DuboisClassifier.classify_trace(t, BlockMap(4))
        assert bd.data_refs == 1 and bd.total == 1

    def test_access_rejects_sync_op(self):
        clf = DuboisClassifier(2, BlockMap(4))
        with pytest.raises(TraceError):
            clf.access(0, ACQUIRE, 9)

    def test_access_rejects_bad_opcode(self):
        clf = DuboisClassifier(1, BlockMap(16))
        with pytest.raises(TraceError):
            clf.access(0, 9, 0)

    def test_double_finish_rejected(self):
        clf = DuboisClassifier(1, BlockMap(4))
        clf.finish()
        with pytest.raises(TraceError):
            clf.finish()

    def test_access_after_finish_rejected(self):
        clf = DuboisClassifier(1, BlockMap(4))
        clf.finish()
        with pytest.raises(TraceError):
            clf.access(0, LOAD, 0)

    def test_nonpositive_procs_rejected(self):
        with pytest.raises(TraceError):
            DuboisClassifier(0, BlockMap(4))


class TestMissLifetimes:
    """Per-miss output of the kernel (what miss attribution consumes)."""

    @staticmethod
    def lifetimes(trace, block_bytes):
        fetch, code = dubois_lifetime_classes(KernelContext.from_trace(trace),
                                              BlockMap(block_bytes))
        return fetch.tolist(), [DUBOIS_CLASSES[c] for c in code]

    def test_lifetimes_capture_misses(self, fig1_trace):
        _, classes = self.lifetimes(fig1_trace, 8)
        assert len(classes) == 3
        assert sorted(c.value for c in classes) == ["CTS", "PC", "PTS"]

    def test_lifetime_fetch_rows(self):
        t = TraceBuilder(2).load(0, 0).store(1, 0).load(0, 0).build()
        fetch, classes = self.lifetimes(t, 4)
        by_row = dict(zip(fetch, classes))
        assert by_row == {0: MissClass.PC, 1: MissClass.PC,
                          2: MissClass.PTS}
