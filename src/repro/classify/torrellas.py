"""Torrellas, Lam & Hennessy's miss classification (paper section 3.1).

Rules, quoted from the paper:

* "a cold miss (CM) is detected if the accessed word is referenced for the
  first time by a given processor" — note: the *word*, not the block.
* "A True Sharing Miss (TSM) is detected on a reference which misses in the
  cache, accesses a word accessed before, and misses in a system with a
  block size of one.  All other misses are False Sharing Misses (FSM)."

The scheme therefore runs two coherence simulations side by side: the real
block size (which decides *whether* a reference misses) and an auxiliary
one-word-block system (which decides whether a non-first-touch miss is
TSM).  The paper criticizes it for depending on which word of the block is
touched first after an invalidation (Figure 3), for inflating cold counts
(a word-granular first-touch test counts block-level re-fetches as cold) and
for being meaningful only for iterative programs.
"""

from __future__ import annotations

from typing import Dict

from ..errors import TraceError
from ..mem.addresses import BlockMap
from ..trace.events import LOAD, STORE
from ..trace.trace import Trace
from .breakdown import SimpleBreakdown


class TorrellasClassifier:
    """Streaming Torrellas/Lam/Hennessy classifier (infinite caches)."""

    def __init__(self, num_procs: int, block_map: BlockMap,
                 *, labels: list = None):
        if num_procs <= 0:
            raise TraceError(f"num_procs must be positive, got {num_procs}")
        self.num_procs = num_procs
        self.block_map = block_map
        #: Optional per-miss label sink ("CM"/"TSM"/"FSM" in miss order),
        #: used by the per-miss cross-scheme invariant checks.
        self.labels = labels
        self._all_mask = (1 << num_procs) - 1
        # Block-size system: which processors hold a valid copy of a block.
        self._block_valid: Dict[int, int] = {}
        # Word-size auxiliary system: which processors hold a valid copy of
        # each word (block size of one word).
        self._word_valid: Dict[int, int] = {}
        # Which processors have ever referenced each word (first-touch test).
        self._word_referenced: Dict[int, int] = {}
        self._cold = 0
        self._tsm = 0
        self._fsm = 0
        self._data_refs = 0
        self._finished = False

    def access(self, proc: int, op: int, word_addr: int) -> None:
        """Process one data reference."""
        if self._finished:
            raise TraceError("classifier already finished")
        if op != LOAD and op != STORE:
            raise TraceError(f"access expects LOAD/STORE, got op {op}")
        self._access(proc, op, word_addr, self.block_map.block_of(word_addr))

    def feed_data(self, procs, ops, addrs, blocks) -> None:
        """Fast path: consume pre-decoded, pre-filtered data references.

        Equal-length sequences of **LOAD/STORE rows only**, with ``blocks``
        the precomputed block address of each access (vectorized
        ``addr >> shift`` from the columnar trace).
        """
        if self._finished:
            raise TraceError("classifier already finished")
        acc = self._access
        for proc, op, addr, block in zip(procs, ops, addrs, blocks):
            acc(proc, op, addr, block)

    def _access(self, proc: int, op: int, word_addr: int,
                block: int) -> None:
        self._data_refs += 1
        bit = 1 << proc

        block_valid = self._block_valid.get(block, 0)
        word_valid = self._word_valid.get(word_addr, 0)
        word_referenced = self._word_referenced.get(word_addr, 0)

        misses_in_block_system = not block_valid & bit
        misses_in_word_system = not word_valid & bit
        if misses_in_block_system:
            if not word_referenced & bit:
                self._cold += 1
                label = "CM"
            elif misses_in_word_system:
                self._tsm += 1
                label = "TSM"
            else:
                self._fsm += 1
                label = "FSM"
            if self.labels is not None:
                self.labels.append(label)

        # Update both coherence systems and the first-touch record.
        self._word_referenced[word_addr] = word_referenced | bit
        if op == STORE:
            self._block_valid[block] = bit
            self._word_valid[word_addr] = bit
        else:
            self._block_valid[block] = block_valid | bit
            self._word_valid[word_addr] = word_valid | bit

    def finish(self) -> SimpleBreakdown:
        """Return the CM/TSM/FSM breakdown."""
        if self._finished:
            raise TraceError("classifier already finished")
        self._finished = True
        return SimpleBreakdown(cold=self._cold, true_sharing=self._tsm,
                               false_sharing=self._fsm,
                               data_refs=self._data_refs)

    @classmethod
    def classify_trace(cls, trace: Trace, block_map: BlockMap) -> SimpleBreakdown:
        """Classify a whole trace at one block size."""
        clf = cls(trace.num_procs, block_map)
        data = trace.columns().data_only()
        clf.feed_data(data.proc.tolist(), data.op.tolist(),
                      data.addr.tolist(),
                      data.block_ids(block_map.offset_bits).tolist())
        return clf.finish()
