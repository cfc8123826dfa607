"""Unit tests for the generalized lifetime tracker."""

import pytest

from repro.classify import DuboisClassifier, MissClass
from repro.errors import ProtocolError
from repro.mem import BlockMap
from repro.protocols.lifetime import LifetimeTracker
from repro.trace import TraceBuilder
from repro.trace.synth import uniform_random


class TestLifecycle:
    def test_cold_clean_block_is_pc(self):
        t = LifetimeTracker(2, BlockMap(8))
        t.fetch(0, 0)
        t.access(0, 0)
        assert t.invalidate(0, 0) is MissClass.PC

    def test_cold_dirty_block_unused_is_cfs(self):
        t = LifetimeTracker(2, BlockMap(8))
        t.store_performed(1, 1)
        t.fetch(0, 0)
        t.access(0, 0)          # only the clean word
        assert t.invalidate(0, 0) is MissClass.CFS

    def test_cold_dirty_block_used_is_cts(self):
        t = LifetimeTracker(2, BlockMap(8))
        t.store_performed(1, 1)
        t.fetch(0, 0)
        t.access(0, 1)          # consumes the fresh value
        assert t.invalidate(0, 0) is MissClass.CTS

    def test_second_lifetime_pts_or_pfs(self):
        t = LifetimeTracker(2, BlockMap(8))
        t.fetch(0, 0); t.access(0, 0)
        t.invalidate(0, 0)                    # PC, FR now set
        t.store_performed(1, 0)
        t.fetch(0, 0); t.access(0, 0)
        assert t.invalidate(0, 0) is MissClass.PTS
        t.store_performed(1, 1)
        t.fetch(0, 0); t.access(0, 0)         # word 0 value is known now
        assert t.invalidate(0, 0) is MissClass.PFS

    def test_post_fetch_stores_do_not_make_lifetime_essential(self):
        """The key delayed-schedule distinction: a store performed after
        the fetch is not in the cached copy."""
        t = LifetimeTracker(2, BlockMap(8))
        t.fetch(0, 0); t.access(0, 0); t.invalidate(0, 0)
        t.fetch(0, 0)
        t.store_performed(1, 0)   # performed after P0's fetch
        t.access(0, 0)            # reads the stale copy
        assert t.invalidate(0, 0) is MissClass.PFS

    def test_snapshot_delivery_is_blockwise(self):
        t = LifetimeTracker(2, BlockMap(16))
        t.store_performed(1, 0)
        t.store_performed(1, 1)
        t.fetch(0, 0); t.access(0, 0)
        t.invalidate(0, 0)        # CTS, delivers words 0 AND 1
        t.fetch(0, 0); t.access(0, 1)
        assert t.invalidate(0, 0) is MissClass.PFS

    def test_writer_knows_own_values(self):
        t = LifetimeTracker(2, BlockMap(8))
        t.fetch(0, 0); t.access(0, 0)
        t.store_performed(0, 0)
        t.invalidate(0, 0)
        t.fetch(0, 0); t.access(0, 0)
        assert t.invalidate(0, 0) is MissClass.PFS

    def test_finish_classifies_live_lifetimes(self):
        t = LifetimeTracker(2, BlockMap(8))
        t.fetch(0, 0); t.access(0, 0)
        bd = t.finish()
        assert bd.pc == 1 and bd.data_refs == 1

    def test_holds(self):
        t = LifetimeTracker(2, BlockMap(8))
        assert not t.holds(0, 0)
        t.fetch(0, 0)
        assert t.holds(0, 0)
        t.invalidate(0, 0)
        assert not t.holds(0, 0)


class TestReplacementMisses:
    def test_replacement_counted_apart(self):
        t = LifetimeTracker(2, BlockMap(8))
        t.fetch(0, 0); t.access(0, 0); t.invalidate(0, 0)   # PC
        t.fetch(0, 0, replacement=True); t.access(0, 0)
        assert t.invalidate(0, 0) is None
        bd = t.finish()
        assert t.replacement_misses == 1
        assert bd.total == 1


class TestErrors:
    def test_double_fetch_rejected(self):
        t = LifetimeTracker(1, BlockMap(8))
        t.fetch(0, 0)
        with pytest.raises(ProtocolError):
            t.fetch(0, 0)

    def test_access_without_fetch_rejected(self):
        t = LifetimeTracker(1, BlockMap(8))
        with pytest.raises(ProtocolError):
            t.access(0, 0)

    def test_invalidate_without_copy_rejected(self):
        t = LifetimeTracker(1, BlockMap(8))
        with pytest.raises(ProtocolError):
            t.invalidate(0, 0)

    def test_double_finish_rejected(self):
        t = LifetimeTracker(1, BlockMap(8))
        t.finish()
        with pytest.raises(ProtocolError):
            t.finish()


class TestEquivalenceWithAppendixA:
    """Driving the tracker with OTF semantics reproduces Appendix A."""

    @pytest.mark.parametrize("block_bytes", [4, 8, 32, 128])
    def test_matches_dubois_on_random_trace(self, block_bytes):
        trace = uniform_random(5, words=96, num_events=4000, seed=13)
        bm = BlockMap(block_bytes)
        tracker = LifetimeTracker(trace.num_procs, bm)
        valid = {}
        for proc, op, addr in trace:
            block = bm.block_of(addr)
            mask = valid.get(block, 0)
            bit = 1 << proc
            if not mask & bit:
                tracker.fetch(proc, block)
                mask |= bit
            tracker.access(proc, addr)
            if op == 1:  # STORE: invalidate remote copies immediately
                others = mask & ~bit
                while others:
                    low = others & -others
                    others ^= low
                    tracker.invalidate(low.bit_length() - 1, block)
                mask = bit
                tracker.store_performed(proc, addr)
            valid[block] = mask
        got = tracker.finish()
        want = DuboisClassifier.classify_trace(trace, bm)
        assert got.as_dict() == want.as_dict()
