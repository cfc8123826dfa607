"""The paper's essential/useless miss classification (Appendix A).

This is the executable specification of the core contribution: every miss
of an infinite-cache write-invalidate execution is classified, *at the end
of the lifetime it begins*, into

* **PC** — pure cold,
* **CTS** — cold and true sharing,
* **CFS** — cold and false sharing,
* **PTS** — pure true sharing (essential, not cold),
* **PFS** — pure false sharing (useless).

:class:`DuboisClassifier` is a direct, unoptimized Python rendering of the
paper's Pascal-like pseudocode.  State (following Appendix A): per (block,
processor) a Presence flag ``P``, an Essential-Miss flag ``EM`` and a
First-Reference flag ``FR``; per (word, processor) a Communication flag
``C``.  Each per-processor flag family is one dictionary of integer
bitmasks keyed by block (or word) address, the block address is recomputed
per access, and the C flags are cleared by looping over every word of the
block, exactly as the pseudocode does.

Two places in the pseudocode contain obvious typos that we correct (both
are forced by the prose definitions in section 2.0):

* ``classify`` guards with ``(my_block or (i < proc_id))``; a *write* must
  end the lifetimes of all processors *other than the writer*, so the
  condition is ``(my_block or (i <> proc_id))``.
* the C-flag clearing loop indexes ``C[block_ad + block_len*i]``; it must
  iterate over the ``block_len`` words *of the block*, i.e.
  ``C[base_word(block_ad) + i] for i in 0..block_len-1``.

Extension (paper section 2.0, "refine the definition of cold misses"): cold
misses are split into PC/CTS/CFS by snapshotting, at lifetime start, whether
the block had been modified since the start of the simulation.

The class has two roles:

* **Oracle.** The vectorized
  :func:`~repro.kernels.classifiers.dubois_kernel` computes the same counts
  from NumPy sorts and reductions; ``tests/test_kernels.py`` checks it
  against this class on random traces and workload prefixes.
* **Interpreted path.** ``--kernel interpreted`` feeds the sweep engine's
  Dubois cells through :meth:`DuboisClassifier.access`.

Every other consumer (:func:`classify`, the three-way comparison, the
analyses) runs the kernel.

Keep this module boring: clarity and line-by-line correspondence with the
paper beat speed here.  Speed belongs in the kernel.
"""

from __future__ import annotations

from typing import Dict

from ..errors import TraceError
from ..mem.addresses import BlockMap
from ..trace.events import LOAD, STORE
from ..trace.trace import Trace
from .breakdown import DuboisBreakdown, MissClass


class DuboisClassifier:
    """Straight transliteration of Appendix A; see the module docstring.

    Feed data references with :meth:`access`, then call :meth:`finish`
    once (:meth:`classify_trace` does both, skipping sync rows).
    """

    def __init__(self, num_procs: int, block_map: BlockMap):
        if num_procs <= 0:
            raise TraceError(f"num_procs must be positive, got {num_procs}")
        self.num_procs = num_procs
        self.block_map = block_map

        self._all_mask = (1 << num_procs) - 1
        # Bitmask state, keyed by block address (P/EM/FR/dirty-at-fetch)
        # or word address (C).  Missing key == all zeros.
        self._present: Dict[int, int] = {}
        self._essential: Dict[int, int] = {}
        self._first_ref_done: Dict[int, int] = {}
        self._dirty_at_fetch: Dict[int, int] = {}
        self._comm: Dict[int, int] = {}
        self._modified: Dict[int, bool] = {}

        self._counts = {MissClass.PC: 0, MissClass.CTS: 0, MissClass.CFS: 0,
                        MissClass.PTS: 0, MissClass.PFS: 0}
        self._data_refs = 0
        self._finished = False

    # ------------------------------------------------------------------
    # event feeding
    # ------------------------------------------------------------------
    def access(self, proc: int, op: int, word_addr: int) -> None:
        """Process one data reference (``op`` is LOAD or STORE)."""
        if self._finished:
            raise TraceError("classifier already finished")
        if op == LOAD:
            self._data_refs += 1
            self._read_action(proc, word_addr)
        elif op == STORE:
            self._data_refs += 1
            self._write_action(proc, word_addr)
        else:
            raise TraceError(f"access expects LOAD/STORE, got op {op}")

    # ------------------------------------------------------------------
    # Appendix A actions
    # ------------------------------------------------------------------
    def _read_action(self, proc: int, word_addr: int) -> None:
        block = self.block_map.block_of(word_addr)
        bit = 1 << proc
        present = self._present.get(block, 0)
        if not present & bit:
            # Miss: a new lifetime starts here.
            self._present[block] = present | bit
            self._essential[block] = self._essential.get(block, 0) & ~bit
            if self._modified.get(block, False):
                self._dirty_at_fetch[block] = \
                    self._dirty_at_fetch.get(block, 0) | bit
            else:
                self._dirty_at_fetch[block] = \
                    self._dirty_at_fetch.get(block, 0) & ~bit
        if self._comm.get(word_addr, 0) & bit:
            # The access touches a value defined by another processor since
            # this processor's last essential miss: the lifetime's miss is
            # essential, and all pending communicated values of the block
            # are considered delivered (clear C for every word).
            self._essential[block] = self._essential.get(block, 0) | bit
            nbit = ~bit
            for w in self.block_map.words_of(block):
                cw = self._comm.get(w, 0)
                if cw & bit:
                    self._comm[w] = cw & nbit

    def _write_action(self, proc: int, word_addr: int) -> None:
        # A store is also an access (may start a lifetime / detect sharing).
        self._read_action(proc, word_addr)
        block = self.block_map.block_of(word_addr)
        bit = 1 << proc
        # The store invalidates every other copy: classify those lifetimes.
        others = self._present.get(block, 0) & ~bit
        if others:
            self._classify_mask(block, others)
            self._present[block] = bit
        # Flag the new value for all other processors.
        self._comm[word_addr] = \
            self._comm.get(word_addr, 0) | (self._all_mask & ~bit)
        self._modified[block] = True

    def _classify_mask(self, block: int, mask: int) -> None:
        """Classify (and end) the lifetimes of every processor in ``mask``."""
        first_done = self._first_ref_done.get(block, 0)
        essential = self._essential.get(block, 0)
        dirty = self._dirty_at_fetch.get(block, 0)
        counts = self._counts
        m = mask
        while m:
            low = m & -m
            m ^= low
            if not first_done & low:
                # First completed lifetime for this processor: a cold miss,
                # refined by whether it communicated (EM) or fetched a
                # modified-but-unused block (dirty at fetch).
                if essential & low:
                    mclass = MissClass.CTS
                elif dirty & low:
                    mclass = MissClass.CFS
                else:
                    mclass = MissClass.PC
            elif essential & low:
                mclass = MissClass.PTS
            else:
                mclass = MissClass.PFS
            counts[mclass] += 1
        self._first_ref_done[block] = first_done | mask

    # ------------------------------------------------------------------
    # finishing
    # ------------------------------------------------------------------
    def finish(self) -> DuboisBreakdown:
        """Classify all still-live lifetimes and return the breakdown."""
        if self._finished:
            raise TraceError("classifier already finished")
        self._finished = True
        for block, present in self._present.items():
            if present:
                self._classify_mask(block, present)
                self._present[block] = 0
        c = self._counts
        return DuboisBreakdown(pc=c[MissClass.PC], cts=c[MissClass.CTS],
                               cfs=c[MissClass.CFS], pts=c[MissClass.PTS],
                               pfs=c[MissClass.PFS],
                               data_refs=self._data_refs)

    # ------------------------------------------------------------------
    # one-shot driver
    # ------------------------------------------------------------------
    @classmethod
    def classify_trace(cls, trace: Trace,
                       block_map: BlockMap) -> DuboisBreakdown:
        """Classify a whole trace's data rows at one block size."""
        clf = cls(trace.num_procs, block_map)
        access = clf.access
        for proc, op, addr in trace.columns().data_only():
            access(proc, op, addr)
        return clf.finish()


def classify(trace: Trace, block_bytes: int) -> DuboisBreakdown:
    """Classify ``trace`` at ``block_bytes`` with the vectorized kernel."""
    # Deferred import: repro.kernels builds on repro.classify.
    from ..kernels.classifiers import KernelContext, dubois_kernel

    return dubois_kernel(KernelContext.from_trace(trace), BlockMap(block_bytes))
