"""Per-miss classification under arbitrary invalidation schedules.

The Appendix A algorithm classifies misses of the *on-the-fly* (OTF)
write-invalidate execution, where a lifetime always ends at the first remote
store.  The delayed protocols (RD/SD/SRD/MAX) let lifetimes stretch past
remote stores, so the paper's Figure 6 decomposition (TRUE/COLD/FALSE per
protocol) needs a generalization: the :class:`LifetimeTracker`.

Semantics (store-sequence watermarks)
-------------------------------------
Each store **performed** (made globally visible — at issue for
OTF/RD/WBWI/MIN, at the release flush for SD/SRD) gets the next number of
one global sequence.  A fetch at sequence ``F`` carries, per word, the
value of the word's last store numbered ``<= F``.  That value is **fresh**
to the fetching processor unless the processor wrote it, an update message
(:meth:`LifetimeTracker.deliver_word`) delivered it or a later one, or it
is at or below the (processor, block) *watermark*: the fetch sequence of
the processor's last essential lifetime of the block, whose miss delivered
the whole fetched block.  The miss is **essential** iff the processor,
during the lifetime, accesses a word whose fetched value is fresh; the
watermark then moves to ``F``, mirroring Appendix A's clearing of every C
flag of the block.  A cold miss is CFS rather than PC iff some word was
fresh at the fetch.

Stores performed *after* the fetch do not make the current lifetime
essential — their values are not in the cached copy — which is exactly the
distinction Appendix A never needs (under OTF such stores end the lifetime)
but delayed schedules do.  Freshness is read from the writer of the fetched
value, so a store the processor itself performs after the fetch (an SD/SRD
flush) does not hide a value that was fresh in the fetched copy.

Every event costs O(1), or a bisection of the word's store list for an
access that may still turn its lifetime essential: independent of the block
size.  For an OTF schedule this tracker provably produces the same counts
as the Appendix A transliteration
:class:`~repro.classify.dubois.DuboisClassifier` and its vectorized
counterpart :func:`~repro.kernels.classifiers.dubois_kernel` (asserted by
the integration tests).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

from ..errors import ProtocolError
from ..mem.addresses import BlockMap
from ..classify.breakdown import DuboisBreakdown, MissClass

#: The five classes, in the order of the tracker's count list.
_CLASSES = (MissClass.PC, MissClass.CTS, MissClass.CFS, MissClass.PTS,
            MissClass.PFS)


class _Lifetime:
    """State of one (block, processor) lifetime between fetch and invalidation."""

    __slots__ = ("fetch_seq", "open", "essential", "replacement")

    def __init__(self, fetch_seq: int, open_: bool, replacement: bool):
        #: Sequence number of the last store performed before the fetch.
        self.fetch_seq = fetch_seq
        #: True while an access may still find a fresh value: there was a
        #: store past the watermark at fetch time (for a cold miss: some
        #: word was fresh) and no fresh access yet.
        self.open = open_
        self.essential = False
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
        self._shift = block_map.offset_bits
        # Number of the last performed store (0: none yet).
        self._seq = 0
        # stores[word]: ascending performed-store numbers, and beside them
        # writers[word]: the processor that performed each.
        self._stores: Dict[int, List[int]] = {}
        self._writers: Dict[int, List[int]] = {}
        # Per block: words ever stored, and the number of its last store.
        self._block_words: Dict[int, List[int]] = {}
        self._block_last: Dict[int, int] = {}
        # watermark[block]: per-proc fetch number of the last essential
        # lifetime; missing == all 0.
        self._watermark: Dict[int, List[int]] = {}
        # delivered[word]: per-proc number of the last store whose value an
        # update message delivered; missing == all 0.
        self._delivered: Dict[int, List[int]] = {}
        # active[block]: per-proc list of live _Lifetime (or None).
        self._active: Dict[int, List[Optional[_Lifetime]]] = {}
        # First-Reference mask per block (set once a lifetime is classified).
        self._fr: Dict[int, int] = {}
        # Lifetimes classified per class, indexed as _CLASSES.
        self._counts = [0] * len(_CLASSES)
        self._data_refs = 0
        self._finished = False
        #: Replacement misses counted apart (finite-cache extension).
        self.replacement_misses = 0

    # ------------------------------------------------------------------
    # store visibility
    # ------------------------------------------------------------------
    def store_performed(self, proc: int, word: int) -> None:
        """A store to ``word`` by ``proc`` becomes globally visible."""
        self._seq = seq = self._seq + 1
        block = word >> self._shift
        stores = self._stores.get(word)
        if stores is None:
            self._stores[word] = stores = []
            self._writers[word] = []
            self._block_words.setdefault(block, []).append(word)
        stores.append(seq)
        self._writers[word].append(proc)
        self._block_last[block] = seq

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
        marks = self._watermark.get(block)
        mark = marks[proc] if marks is not None else 0
        open_ = self._block_last.get(block, 0) > mark
        if open_ and not self._fr.get(block, 0) & (1 << proc):
            # A cold miss (so mark == 0): is any stored word fresh now?  If
            # none is, no access of this lifetime can find one either.
            delivered = self._delivered
            open_ = False
            for w in self._block_words[block]:
                if self._writers[w][-1] != proc:
                    d = delivered.get(w)
                    if d is None or d[proc] < self._stores[w][-1]:
                        open_ = True
                        break
        row[proc] = _Lifetime(self._seq, open_, replacement)

    def access(self, proc: int, word: int) -> None:
        """``proc`` performs a data reference to ``word`` (hit or post-fetch)."""
        self._data_refs += 1
        block = word >> self._shift
        row = self._active.get(block)
        life = row[proc] if row is not None else None
        if life is None:
            raise ProtocolError(
                f"P{proc} accesses word {word:#x} without a live copy of "
                f"block {block:#x} (protocol forgot to fetch?)")
        if not life.open:
            return
        stores = self._stores.get(word)
        if stores is None:
            return
        # The fetched value of the word: its last store numbered <= F.
        fetch_seq = life.fetch_seq
        i = len(stores) - 1
        if stores[i] > fetch_seq:
            i = bisect_right(stores, fetch_seq) - 1
            if i < 0:
                return
        if self._writers[word][i] == proc:
            return
        seq = stores[i]
        marks = self._watermark.get(block)
        if marks is not None and seq <= marks[proc]:
            return
        delivered = self._delivered.get(word)
        if delivered is not None and seq <= delivered[proc]:
            return
        # Fresh: the miss was essential and delivered the whole fetched block.
        life.essential = True
        life.open = False
        if marks is None:
            marks = [0] * self.num_procs
            self._watermark[block] = marks
        marks[proc] = fetch_seq

    def deliver_word(self, proc: int, word: int) -> None:
        """An update message pushes ``word``'s current value into ``proc``'s

        cache (write-update / competitive-update protocols).  The processor
        now knows the value without a miss; if the live lifetime's fetched
        copy still carried an older pending value of the word, that delivery
        is superseded."""
        stores = self._stores.get(word)
        if stores is None:
            return
        delivered = self._delivered.get(word)
        if delivered is None:
            delivered = [0] * self.num_procs
            self._delivered[word] = delivered
        delivered[proc] = stores[-1]

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
            # A cold lifetime was open at fetch iff some word was fresh, and
            # closes only on turning essential: open now means CFS.
            self._fr[block] = fr | bit
            k = 1 if life.essential else 2 if life.open else 0
        else:
            k = 3 if life.essential else 4
        self._counts[k] += 1
        return _CLASSES[k]

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
        pc, cts, cfs, pts, pfs = self._counts
        return DuboisBreakdown(pc=pc, cts=cts, cfs=cfs, pts=pts, pfs=pfs,
                               data_refs=self._data_refs)
