"""Per-miss classification under arbitrary invalidation schedules.

The Appendix A algorithm classifies misses of the *on-the-fly* (OTF)
write-invalidate execution, where a lifetime always ends at the first remote
store.  The delayed protocols (RD/SD/SRD/MAX) let lifetimes stretch past
remote stores, so the paper's Figure 6 decomposition (TRUE/COLD/FALSE per
protocol) needs a generalization: the :class:`LifetimeTracker`.

Semantics (fetch-snapshot)
--------------------------
Each word carries a *version*, bumped when a store to it is **performed**
(made globally visible — at issue for OTF/RD/WBWI/MIN, at the release flush
for SD/SRD).  Each processor *knows* a version of each word: the version it
defined itself, or the version delivered to it by its last essential miss.
A fetch snapshots, per word of the block, the fresh versions the fetched
copy carries (``version > known``).  The miss that caused the fetch is
**essential** iff the processor, during the lifetime, accesses a word that
was fresh *in the snapshot*; at that moment all snapshot versions become
known (the whole fetched block was delivered), mirroring Appendix A's
clearing of every C flag of the block.

Stores performed *after* the fetch do not make the current lifetime
essential — their values are not in the cached copy — which is exactly the
distinction Appendix A never needs (under OTF such stores end the lifetime)
but delayed schedules do.  For an OTF schedule this tracker provably
produces the same counts as the Appendix A transliteration
:class:`~repro.classify.dubois.DuboisClassifier` and its vectorized
counterpart :func:`~repro.kernels.classifiers.dubois_kernel` (asserted by
the integration tests).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..errors import ProtocolError
from ..mem.addresses import BlockMap
from ..classify.breakdown import DuboisBreakdown, MissClass


class _Lifetime:
    """State of one (block, processor) lifetime between fetch and invalidation."""

    __slots__ = ("fresh", "essential", "dirty_at_fetch", "replacement")

    def __init__(self, fresh: Optional[Dict[int, int]], replacement: bool):
        #: word -> fetched version, for words carrying values new to the
        #: processor; None once the lifetime has turned essential.
        self.fresh = fresh
        self.essential = False
        self.dirty_at_fetch = bool(fresh)
        #: True when the miss that started this lifetime re-fetched a block
        #: lost to a cache replacement (finite caches only).  Such misses
        #: are *replacement misses* — essential by definition (paper
        #: section 8.0) — and are counted apart from the five classes.
        self.replacement = replacement


class LifetimeTracker:
    """Classifies protocol misses into PC/CTS/CFS/PTS/PFS.

    Protocol simulators drive it with:

    * :meth:`access` — once per data reference (load or store), *after*
      ensuring the block is fetched;
    * :meth:`fetch` — when a miss brings a block into a cache;
    * :meth:`invalidate` — when a cache's copy is destroyed (classifies the
      ending lifetime and returns its class);
    * :meth:`store_performed` — when a store becomes globally visible;
    * :meth:`finish` — once, at end of trace (classifies live lifetimes).
    """

    def __init__(self, num_procs: int, block_map: BlockMap):
        self.num_procs = num_procs
        self.block_map = block_map
        # version[word]: bumped per performed store; missing == 0.
        self._version: Dict[int, int] = {}
        # known[word]: per-proc list of known versions; missing == all 0.
        self._known: Dict[int, List[int]] = {}
        # active[block]: per-proc list of live _Lifetime (or None).
        self._active: Dict[int, List[Optional[_Lifetime]]] = {}
        # First-Reference mask per block (set once a lifetime is classified).
        self._fr: Dict[int, int] = {}
        # Blocks ever stored to (fast path: fetches of clean blocks).
        self._block_stored: Dict[int, bool] = {}
        self._counts = {MissClass.PC: 0, MissClass.CTS: 0, MissClass.CFS: 0,
                        MissClass.PTS: 0, MissClass.PFS: 0}
        self._data_refs = 0
        self._finished = False
        #: Replacement misses counted apart (finite-cache extension).
        self.replacement_misses = 0

    # ------------------------------------------------------------------
    # store visibility
    # ------------------------------------------------------------------
    def store_performed(self, proc: int, word: int) -> None:
        """A store to ``word`` by ``proc`` becomes globally visible.

        Bumps the word version and records that the writer knows the value
        it defined.
        """
        v = self._version.get(word, 0) + 1
        self._version[word] = v
        known = self._known.get(word)
        if known is None:
            known = [0] * self.num_procs
            self._known[word] = known
        known[proc] = v
        self._block_stored[self.block_map.block_of(word)] = True

    # ------------------------------------------------------------------
    # lifetime events
    # ------------------------------------------------------------------
    def fetch(self, proc: int, block: int, *, replacement: bool = False) -> None:
        """A miss by ``proc`` brings ``block`` into its cache.

        ``replacement=True`` marks the miss as a re-fetch after a cache
        replacement (finite caches): it is counted as a replacement miss
        instead of one of the five classes.
        """
        row = self._active.get(block)
        if row is None:
            row = [None] * self.num_procs
            self._active[block] = row
        if row[proc] is not None:
            raise ProtocolError(
                f"P{proc} fetches block {block:#x} while already holding it")
        fresh: Optional[Dict[int, int]] = None
        if self._block_stored.get(block):
            version = self._version
            known = self._known
            snapshot = {}
            for w in self.block_map.words_of(block):
                v = version.get(w, 0)
                if v:
                    k = known.get(w)
                    if k is None or k[proc] < v:
                        snapshot[w] = v
            fresh = snapshot or None
        row[proc] = _Lifetime(fresh, replacement)

    def access(self, proc: int, word: int) -> None:
        """``proc`` performs a data reference to ``word`` (hit or post-fetch)."""
        self._data_refs += 1
        block = self.block_map.block_of(word)
        row = self._active.get(block)
        life = row[proc] if row is not None else None
        if life is None:
            raise ProtocolError(
                f"P{proc} accesses word {word:#x} without a live copy of "
                f"block {block:#x} (protocol forgot to fetch?)")
        fresh = life.fresh
        if fresh is not None and word in fresh:
            life.essential = True
            # The essential miss delivered every snapshot value.
            known_map = self._known
            for w, v in fresh.items():
                k = known_map.get(w)
                if k is None:
                    k = [0] * self.num_procs
                    known_map[w] = k
                if k[proc] < v:
                    k[proc] = v
            life.fresh = None

    def deliver_word(self, proc: int, word: int) -> None:
        """An update message pushes ``word``'s current value into ``proc``'s

        cache (write-update / competitive-update protocols).  The processor
        now knows the value without a miss; if the live lifetime's fetch
        snapshot still carried an older pending value of the word, that
        delivery is superseded."""
        v = self._version.get(word, 0)
        if not v:
            return
        known = self._known.get(word)
        if known is None:
            known = [0] * self.num_procs
            self._known[word] = known
        if known[proc] < v:
            known[proc] = v
        row = self._active.get(self.block_map.block_of(word))
        life = row[proc] if row is not None else None
        if life is not None and life.fresh is not None and word in life.fresh:
            del life.fresh[word]
            if not life.fresh:
                life.fresh = None

    def holds(self, proc: int, block: int) -> bool:
        """True if ``proc`` currently has a live lifetime for ``block``."""
        row = self._active.get(block)
        return row is not None and row[proc] is not None

    def invalidate(self, proc: int, block: int):
        """End ``proc``'s lifetime for ``block``; classify and return the
        :class:`~repro.classify.breakdown.MissClass` (None for lifetimes
        started by a replacement miss)."""
        row = self._active.get(block)
        life = row[proc] if row is not None else None
        if life is None:
            raise ProtocolError(
                f"P{proc} invalidated for block {block:#x} it does not hold")
        row[proc] = None
        return self._classify(proc, block, life)

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def _classify(self, proc: int, block: int, life: _Lifetime):
        bit = 1 << proc
        fr = self._fr.get(block, 0)
        if life.replacement:
            # Replacement misses are essential by definition and counted
            # outside the five-way decomposition.
            self._fr[block] = fr | bit
            self.replacement_misses += 1
            return None
        if not fr & bit:
            self._fr[block] = fr | bit
            if life.essential:
                mclass = MissClass.CTS
            elif life.dirty_at_fetch:
                mclass = MissClass.CFS
            else:
                mclass = MissClass.PC
        elif life.essential:
            mclass = MissClass.PTS
        else:
            mclass = MissClass.PFS
        self._counts[mclass] += 1
        return mclass

    def finish(self) -> DuboisBreakdown:
        """Classify all live lifetimes and return the five-way breakdown."""
        if self._finished:
            raise ProtocolError("tracker already finished")
        self._finished = True
        for block, row in self._active.items():
            for proc, life in enumerate(row):
                if life is not None:
                    self._classify(proc, block, life)
                    row[proc] = None
        c = self._counts
        return DuboisBreakdown(pc=c[MissClass.PC], cts=c[MissClass.CTS],
                               cfs=c[MissClass.CFS], pts=c[MissClass.PTS],
                               pfs=c[MissClass.PFS], data_refs=self._data_refs)
