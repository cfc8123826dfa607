"""Unit tests for the generalized lifetime tracker.

``SnapshotTracker`` below is the definition the watermark tracker must
reproduce: on each fetch it snapshots, word by word, the values of the
block that are new to the fetching processor.  It costs O(B) per miss, so
it lives here as the differential oracle only.
"""

from typing import Dict, List, Optional

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.classify import DuboisClassifier, MissClass
from repro.classify.breakdown import DuboisBreakdown
from repro.errors import ProtocolError
from repro.mem import BlockMap
from repro.protocols.lifetime import LifetimeTracker
from repro.trace.synth import uniform_random


class _SnapshotLifetime:
    __slots__ = ("fresh", "essential", "dirty_at_fetch", "replacement")

    def __init__(self, fresh: Optional[Dict[int, int]], replacement: bool):
        # word -> fetched version, for words carrying values new to the
        # processor; None once the lifetime has turned essential.
        self.fresh = fresh
        self.essential = False
        self.dirty_at_fetch = bool(fresh)
        self.replacement = replacement


class SnapshotTracker:
    """Fetch-snapshot lifetime classifier (the oracle).

    Each word carries a version, bumped when a store to it is performed.
    Each processor knows a version of each word: the one it defined, or
    the one delivered by its last essential miss or by an update message.
    A fetch snapshots the words whose version is newer than the known one;
    the miss is essential iff a snapshot word is accessed during the
    lifetime, and that access delivers the whole snapshot.
    """

    def __init__(self, num_procs: int, block_map: BlockMap):
        self.num_procs = num_procs
        self.block_map = block_map
        self._version: Dict[int, int] = {}
        self._known: Dict[int, List[int]] = {}
        self._active: Dict[int, List[Optional[_SnapshotLifetime]]] = {}
        self._fr: Dict[int, int] = {}
        self._counts = {c: 0 for c in (MissClass.PC, MissClass.CTS,
                                       MissClass.CFS, MissClass.PTS,
                                       MissClass.PFS)}
        self._data_refs = 0
        self.replacement_misses = 0

    def _known_row(self, word: int) -> List[int]:
        return self._known.setdefault(word, [0] * self.num_procs)

    def store_performed(self, proc: int, word: int) -> None:
        v = self._version.get(word, 0) + 1
        self._version[word] = v
        self._known_row(word)[proc] = v

    def fetch(self, proc: int, block: int, *, replacement: bool = False):
        row = self._active.setdefault(block, [None] * self.num_procs)
        assert row[proc] is None
        snapshot = {}
        for w in self.block_map.words_of(block):
            v = self._version.get(w, 0)
            if v and self._known_row(w)[proc] < v:
                snapshot[w] = v
        row[proc] = _SnapshotLifetime(snapshot or None, replacement)

    def access(self, proc: int, word: int) -> None:
        self._data_refs += 1
        life = self._active[self.block_map.block_of(word)][proc]
        if life.fresh is not None and word in life.fresh:
            life.essential = True
            for w, v in life.fresh.items():
                k = self._known_row(w)
                k[proc] = max(k[proc], v)
            life.fresh = None

    def deliver_word(self, proc: int, word: int) -> None:
        v = self._version.get(word, 0)
        if not v:
            return
        k = self._known_row(word)
        k[proc] = max(k[proc], v)
        row = self._active.get(self.block_map.block_of(word))
        life = row[proc] if row is not None else None
        if life is not None and life.fresh is not None and word in life.fresh:
            del life.fresh[word]
            if not life.fresh:
                life.fresh = None

    def holds(self, proc: int, block: int) -> bool:
        row = self._active.get(block)
        return row is not None and row[proc] is not None

    def invalidate(self, proc: int, block: int):
        row = self._active[block]
        life, row[proc] = row[proc], None
        return self._classify(proc, block, life)

    def _classify(self, proc: int, block: int, life: _SnapshotLifetime):
        bit = 1 << proc
        fr = self._fr.get(block, 0)
        self._fr[block] = fr | bit
        if life.replacement:
            self.replacement_misses += 1
            return None
        if not fr & bit:
            mclass = (MissClass.CTS if life.essential else
                      MissClass.CFS if life.dirty_at_fetch else MissClass.PC)
        else:
            mclass = MissClass.PTS if life.essential else MissClass.PFS
        self._counts[mclass] += 1
        return mclass

    def finish(self) -> DuboisBreakdown:
        for block, row in self._active.items():
            for proc, life in enumerate(row):
                if life is not None:
                    self._classify(proc, block, life)
                    row[proc] = None
        c = self._counts
        return DuboisBreakdown(pc=c[MissClass.PC], cts=c[MissClass.CTS],
                               cfs=c[MissClass.CFS], pts=c[MissClass.PTS],
                               pfs=c[MissClass.PFS], data_refs=self._data_refs)


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


class TestWatermarkCases:
    """Cases a coarser watermark gets wrong; the classes are the oracle's."""

    @pytest.mark.parametrize("tracker", [LifetimeTracker, SnapshotTracker])
    def test_own_store_after_fetch_leaves_cts(self, tracker):
        # P0's buffered store is flushed after its fetch (SD/SRD): the
        # fetched copy still carried P1's value, which P0 then reads.
        t = tracker(2, BlockMap(8))
        t.store_performed(1, 0)
        t.fetch(0, 0)
        t.store_performed(0, 0)
        t.access(0, 0)
        assert t.invalidate(0, 0) is MissClass.CTS

    @pytest.mark.parametrize("tracker", [LifetimeTracker, SnapshotTracker])
    def test_delivery_after_fetch_supersedes_fresh_value(self, tracker):
        t = tracker(2, BlockMap(8))
        t.fetch(0, 0); t.access(0, 0); t.invalidate(0, 0)      # PC
        t.store_performed(1, 0)
        t.fetch(0, 0)
        t.deliver_word(0, 0)      # an update pushes the same value
        t.access(0, 0)
        assert t.invalidate(0, 0) is MissClass.PFS

    @pytest.mark.parametrize("tracker", [LifetimeTracker, SnapshotTracker])
    def test_watermark_carries_across_lifetimes(self, tracker):
        t = tracker(2, BlockMap(16))
        t.fetch(0, 0); t.access(0, 0); t.invalidate(0, 0)      # PC
        t.store_performed(1, 0)
        t.store_performed(1, 1)
        t.fetch(0, 0); t.access(0, 0)
        assert t.invalidate(0, 0) is MissClass.PTS   # delivers words 0, 1
        t.store_performed(0, 2)   # the block changed, but no remote store
        t.fetch(0, 0); t.access(0, 1)
        assert t.invalidate(0, 0) is MissClass.PFS

    @pytest.mark.parametrize("tracker", [LifetimeTracker, SnapshotTracker])
    def test_watermark_is_the_fetch_not_the_essential_access(self, tracker):
        t = tracker(2, BlockMap(16))
        t.fetch(0, 0); t.access(0, 0); t.invalidate(0, 0)      # PC
        t.store_performed(1, 0)
        t.fetch(0, 0)
        t.store_performed(1, 1)   # after the fetch: not in P0's copy
        t.access(0, 0)
        assert t.invalidate(0, 0) is MissClass.PTS
        t.fetch(0, 0); t.access(0, 1)
        assert t.invalidate(0, 0) is MissClass.PTS

    @pytest.mark.parametrize("tracker", [LifetimeTracker, SnapshotTracker])
    def test_delivery_before_cold_fetch_leaves_pc(self, tracker):
        t = tracker(2, BlockMap(8))
        t.store_performed(1, 0)
        t.deliver_word(0, 0)
        t.fetch(0, 0)
        t.access(0, 1)
        assert t.invalidate(0, 0) is MissClass.PC

    @pytest.mark.parametrize("tracker", [LifetimeTracker, SnapshotTracker])
    def test_own_later_store_is_last_writer_gives_pc(self, tracker):
        t = tracker(2, BlockMap(8))
        t.store_performed(1, 0)
        t.store_performed(0, 0)   # P0 overwrites P1's value before fetching
        t.fetch(0, 0)
        t.access(0, 1)
        assert t.invalidate(0, 0) is MissClass.PC


_KINDS = ("access", "access", "access", "store", "store", "fetch",
          "invalidate", "deliver")


@st.composite
def tracker_scripts(draw):
    """A block size, a processor count and a legal tracker event script.

    Steps are ``(kind, proc, word, flag)``; the words come from a pool of
    at most six within three blocks, so events collide often.  Whether a
    fetch, access or invalidate is legal depends on the live copies, so
    the test loop turns an illegal one into its legal counterpart (access or
    invalidate without a copy -> fetch; fetch with a copy -> invalidate
    when ``flag``, else nothing).  A fetch is a replacement re-fetch when
    ``flag``.  Each step is drawn as one integer, which keeps generating
    long scripts cheap.
    """
    block_bytes = draw(st.sampled_from((4, 8, 16, 32, 64)))
    num_procs = draw(st.integers(1, 3))
    pool = draw(st.lists(st.integers(0, 3 * block_bytes // 4 - 1),
                         min_size=1, max_size=6, unique=True))
    codes = draw(st.lists(st.integers(0, len(_KINDS) * 3 * 6 * 4 - 1),
                          min_size=40, max_size=150))
    steps = []
    for code in codes:
        code, kind = divmod(code, len(_KINDS))
        code, proc = divmod(code, 3)
        code, word = divmod(code, 6)
        steps.append((_KINDS[kind], proc % num_procs, pool[word % len(pool)],
                      code == 0))
    return block_bytes, num_procs, steps


@given(tracker_scripts())
@settings(max_examples=400, deadline=None)
def test_watermark_tracker_matches_snapshot_oracle(script):
    block_bytes, num_procs, steps = script
    bm = BlockMap(block_bytes)
    new = LifetimeTracker(num_procs, bm)
    old = SnapshotTracker(num_procs, bm)
    for kind, proc, word, flag in steps:
        block = bm.block_of(word)
        held = old.holds(proc, block)
        assert new.holds(proc, block) == held
        if kind == "store":
            new.store_performed(proc, word)
            old.store_performed(proc, word)
        elif kind == "deliver":
            new.deliver_word(proc, word)
            old.deliver_word(proc, word)
        elif kind == "access" and held:
            new.access(proc, word)
            old.access(proc, word)
        elif held and (kind == "invalidate" or flag):
            assert new.invalidate(proc, block) == old.invalidate(proc, block)
        elif not held:
            new.fetch(proc, block, replacement=flag)
            old.fetch(proc, block, replacement=flag)
    assert new.finish() == old.finish()
    assert new.replacement_misses == old.replacement_misses
