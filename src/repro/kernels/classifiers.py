"""Vectorized classifier kernels over columnar data rows.

Each kernel computes the *same counters* as its streaming oracle
(:class:`~repro.classify.dubois.DuboisClassifier`,
:class:`~repro.classify.eggers.EggersClassifier`,
:class:`~repro.classify.torrellas.TorrellasClassifier`) from a handful of
NumPy sorts and reductions instead of a Python loop per event.  The
reduction is legal because every piece of classifier state is per
(block, processor) or per (word, processor), and every transition
compares *relative positions* of rows within those groups:

* an access misses iff it is the first (block, processor) access or a
  store to the block intervened since the previous one — every store to
  the block between two consecutive accesses by one processor is
  necessarily a *remote* store (the processor's own stores are accesses
  too), so the test is a store-*count* difference along the block's
  time-sorted history, no per-processor provenance needed;
* Dubois' per-word C flags reduce to "newest remote store to the word
  before the access" (own stores *can* be the newest here, so this one
  needs the two-top remote table), folded per miss lifetime with
  ``np.maximum.reduceat`` and resolved against the previous *essential*
  lifetime by an antitone fixpoint iteration (the only sequential
  dependence, solved in a few whole-array passes);
* Eggers' stale-word test reduces to "newest store to the word since
  the previous block access" and Torrellas' word-system to the same
  first-touch/store-since comparisons at word granularity.

Because every comparison is order-only, feeding a kernel any row subset
that keeps whole (block, processor) histories — a block shard, or the
rows surviving the Dubois no-op read elision mask — produces exactly the
counters the oracle produces on that subset.  The word-side tables are
additionally restricted to rows of words that are stored at all (the
rest have no last store by construction), a subset of the same kind.
The full legality argument lives in DESIGN.md ("Vectorized kernels").

Heartbeat contract: kernels credit the runtime progress counter with
roughly one tick per row, spread across their phases in slices no larger
than ``HEARTBEAT_CHUNK``, so the supervisor's stall watchdog sees a
slow-but-alive vectorized cell advance exactly like an interpreted one.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..classify.breakdown import DuboisBreakdown, MissClass, SimpleBreakdown
from ..runtime import signals
from ..trace.events import STORE
from .segments import (
    NO_ROW,
    last_store_tables,
    pack_order,
    prev_same_index,
    regroup_monotone,
    store_runs,
    unit_ids,
    unit_store_summary,
)

__all__ = ["DUBOIS_CLASSES", "KernelContext", "dubois_kernel",
           "dubois_lifetime_classes", "eggers_kernel", "torrellas_kernel"]


class _Heartbeat:
    """Spread one batch's liveness ticks across a kernel's phases.

    The interpreted paths call
    :func:`repro.runtime.signals.note_progress` once per
    ``HEARTBEAT_CHUNK`` events consumed; a kernel consumes the whole
    batch in a few vectorized phases, so it credits the same total (one
    tick per row) in per-phase installments, each split into slices no
    larger than ``HEARTBEAT_CHUNK``.  Every tick is also a cancellation
    point, so graceful shutdown interrupts between phases.  ``stats``
    (when given) accumulates the batch count and row total for the
    ``kernel.batch`` telemetry metric.
    """

    #: Nominal phase budget; :meth:`finish` credits any remainder, so a
    #: kernel with fewer phases still ticks its full row count.
    PHASES = 8

    def __init__(self, rows: int, stats: Optional[Dict] = None):
        self.rows = int(rows)
        self.stats = stats
        self._credited = 0
        self._phase_no = 0
        if stats is not None:
            stats["rows"] = stats.get("rows", 0) + self.rows
            stats.setdefault("batches", 0)

    def _tick(self, n: int) -> None:
        step = signals.HEARTBEAT_CHUNK
        while n > 0:
            take = min(n, step)
            signals.note_progress(take)
            if self.stats is not None:
                self.stats["batches"] += 1
            n -= take

    def phase(self) -> None:
        """Credit one phase's share of the batch's ticks."""
        self._phase_no += 1
        target = min(self.rows,
                     self.rows * self._phase_no // self.PHASES)
        due = target - self._credited
        self._credited = target
        if due > 0:
            self._tick(due)
        else:
            signals.check_interrupt()

    def pulse(self) -> None:
        """A cancellation point that credits nothing (inner loops)."""
        signals.check_interrupt()

    def finish(self) -> None:
        """Credit whatever the phases have not ticked yet."""
        due = self.rows - self._credited
        self._credited = self.rows
        if due > 0:
            self._tick(due)
        else:
            signals.check_interrupt()


class KernelContext:
    """Shared vectorized derivations over one batch of data rows.

    Word-granularity artifacts (the per-word store tables, the previous
    same-(word, processor) access) do not depend on the block size, so
    one context serves every block size of a sweep; per-block-size state
    lives in cached :class:`_BlockView` instances.  Per-row position
    tables are int32 and the large gathers run over int8/int16 value
    arrays — at these sizes the kernels are memory-bound, so narrow
    lanes are most of the speedup after the packed sorts.
    """

    def __init__(self, proc, op, addr, num_procs: int):
        self.proc = np.ascontiguousarray(proc, dtype=np.int64)
        op = np.ascontiguousarray(op, dtype=np.int64)
        self.addr = np.ascontiguousarray(addr, dtype=np.int64)
        self.store8 = (op == STORE).view(np.int8)
        self.n = len(self.addr)
        self.num_procs = int(num_procs)
        self.proc_small = self.proc.astype(np.int16)
        self._pbits = max(1, (self.num_procs - 1).bit_length())
        self.wid, self.num_words, self.wuniq = unit_ids(self.addr)
        self._srows = None
        self._wbase = None
        self._word_last = None
        self._word_remote = None
        self._word_prev = None
        self._views: Dict[int, "_BlockView"] = {}

    @classmethod
    def from_trace(cls, trace) -> "KernelContext":
        """Build over a whole trace's data rows (sync rows dropped)."""
        data = trace.columns().data_only()
        return cls(data.proc, data.op, data.addr, trace.num_procs)

    # -- word-granularity state (block-size independent) ----------------
    def store_rows(self) -> np.ndarray:
        """Rows that are stores, in time order."""
        if self._srows is None:
            self._srows = np.flatnonzero(self.store8)
        return self._srows

    def _word_base(self):
        """Word-sorted last/remote store tables, pre-scatter.

        Computed over the rows whose word has at least one store when
        that subset is small enough to pay for the indirection (rows of
        never-stored words have no last/remote store by construction —
        whole word histories, hence exact).  Returns ``(g_row, last,
        remote)`` aligned with the (word, time) sort of that subset.
        """
        if self._wbase is None:
            has = np.zeros(self.num_words, dtype=bool)
            has[self.wid[self.store_rows()]] = True
            mask = has[self.wid]
            sel = None
            wid_s, st8 = self.wid, self.store8
            cnt = int(mask.sum())
            if cnt < (3 * self.n) // 4:
                sel = np.flatnonzero(mask)
                wid_s, st8 = self.wid[sel], self.store8[sel]
            order, swid = pack_order(wid_s, self.num_words - 1)
            g_row = order if sel is None else sel[order]
            st = st8[order]
            runs = store_runs(g_row, swid, st, self.proc_small)
            last_s, remote_s = last_store_tables(g_row, swid, st, runs,
                                                 self.proc_small)
            self._wbase = (g_row, last_s, remote_s)
        return self._wbase

    def word_last_rows(self) -> np.ndarray:
        """Newest store to the row's word strictly before it (any proc)."""
        if self._word_last is None:
            g_row, last_s, _ = self._word_base()
            out = np.full(self.n, NO_ROW, dtype=np.int32)
            out[g_row] = last_s
            self._word_last = out
        return self._word_last

    def word_remote_rows(self) -> np.ndarray:
        """Newest store to the row's word before it by another proc."""
        if self._word_remote is None:
            g_row, _, remote_s = self._word_base()
            out = np.full(self.n, NO_ROW, dtype=np.int32)
            out[g_row] = remote_s
            self._word_remote = out
        return self._word_remote

    def word_prev(self) -> np.ndarray:
        """Previous access by the same processor to the same word."""
        if self._word_prev is None:
            key = ((self.wid << self._pbits) | self.proc)
            kmax = (((self.num_words - 1) << self._pbits)
                    | (self.num_procs - 1))
            self._word_prev = prev_same_index(key, kmax)
        return self._word_prev

    # -- per-block-size state -------------------------------------------
    def block_view(self, offset_bits: int) -> "_BlockView":
        if offset_bits not in self._views:
            self._views[offset_bits] = _BlockView(self, offset_bits)
        return self._views[offset_bits]


class _BlockView:
    """Block-granularity state of one context at one block size.

    Raw word ids shift straight to block ids; densified ids collapse
    through the sorted uniques (monotone, so no second comparison
    sort).  The (block, processor) grouping is one packed sort yielding
    the group starts and the sorted order the folds run over; rows of a
    group being *adjacent* there, "my group's previous row" is a
    one-slot shift, so nothing is gathered through a prev-index table.
    """

    def __init__(self, ctx: KernelContext, offset_bits: int):
        self.ctx = ctx
        self.offset_bits = offset_bits
        if ctx.wuniq is None:
            self.bid = ctx.wid >> offset_bits
            self.num_blocks = ((ctx.num_words - 1) >> offset_bits) + 1 \
                if ctx.n else 0
        else:
            self.bid, self.num_blocks = regroup_monotone(
                ctx.wid, ctx.wuniq >> offset_bits)
        self._bsorted = None
        self._counts = None
        self._summary = None
        self._groups = None
        self._prev_sorted = None
        self._miss = None
        self._life = None

    def _block_sorted(self):
        """Rows in (block, time) order: ``(order, sorted_bid, store)``."""
        if self._bsorted is None:
            order, sbid = pack_order(self.bid, self.num_blocks - 1)
            self._bsorted = (order, sbid, self.ctx.store8[order])
        return self._bsorted

    def store_counts(self) -> np.ndarray:
        """Exclusive running store count along each block's history.

        ``counts[i]`` is the number of stores in blocks sorted before
        i's block plus those to i's block strictly before i.
        Differences between rows of the same block cancel the per-block
        offset, which is the only way the kernels consume it: the
        number of stores to the block between two of its rows.
        """
        if self._counts is None:
            order, _, st = self._block_sorted()
            t = np.cumsum(st, dtype=np.int32)
            np.subtract(t, st, out=t, casting="unsafe")
            out = np.empty(self.ctx.n, dtype=np.int32)
            out[order] = t
            self._counts = out
        return self._counts

    def store_summary(self):
        """Per-block ``(first_row, top_row, top_proc, second_row)``.

        Store-subsequence-sized work over the (block, time) sort the
        counts already paid for.
        """
        if self._summary is None:
            order, sbid, st = self._block_sorted()
            spos = np.flatnonzero(st)
            self._summary = unit_store_summary(
                sbid[spos], order[spos],
                self.ctx.proc_small[order[spos]].astype(np.int64),
                self.num_blocks)
        return self._summary

    def groups(self):
        """``(order, new_group, gid_sorted, num_groups)``.

        ``new_group`` and ``gid_sorted`` align with ``order`` (the
        (block, processor, time) sort), not with batch rows — the
        kernels consume them in place and sum, so nothing is ever
        scattered back to row order.
        """
        if self._groups is None:
            ctx = self.ctx
            n = ctx.n
            if n:
                key = (self.bid << ctx._pbits) | ctx.proc
                kmax = (((self.num_blocks - 1) << ctx._pbits)
                        | (ctx.num_procs - 1))
                order, sk = pack_order(key, kmax)
                newg = np.empty(n, dtype=bool)
                newg[0] = True
                np.not_equal(sk[1:], sk[:-1], out=newg[1:])
                gid_sorted = np.cumsum(newg, dtype=np.int32)
                gid_sorted -= 1
                num_groups = int(gid_sorted[-1]) + 1
            else:
                order = np.empty(0, dtype=np.int64)
                newg = np.empty(0, dtype=bool)
                gid_sorted = np.empty(0, dtype=np.int32)
                num_groups = 0
            self._groups = (order, newg, gid_sorted, num_groups)
        return self._groups

    def prev_sorted(self) -> np.ndarray:
        """Previous same-(block, processor) row, aligned with the group
        order (-1 at group starts) — only the word-versus-block-history
        comparisons need the actual row number."""
        if self._prev_sorted is None:
            order, newg, _, _ = self.groups()
            n = len(order)
            shifted = np.empty(n, dtype=np.int64)
            if n:
                shifted[0] = -1
                shifted[1:] = order[:-1]
            self._prev_sorted = np.where(newg, np.int64(-1), shifted)
        return self._prev_sorted

    def miss_sorted(self) -> np.ndarray:
        """Miss flags aligned with the (block, processor, time) order.

        A row misses iff it is its group's first or any store to the
        block (necessarily remote) lands between it and the group's
        previous row.  Group rows are adjacent in group order, so the
        store-count difference is a one-slot shift — excluding the
        previous row itself when it is a store.
        """
        if self._miss is None:
            counts = self.store_counts()
            order, newg, _, _ = self.groups()
            n = len(order)
            if not n:
                self._miss = np.empty(0, dtype=bool)
                return self._miss
            tg = counts[order]
            st_g = self.ctx.store8[order]
            between = np.empty(n, dtype=np.int32)
            between[0] = 0
            np.subtract(tg[1:], tg[:-1], out=between[1:])
            np.subtract(between[1:], st_g[:-1], out=between[1:],
                        casting="unsafe")
            self._miss = newg | (between > 0)
        return self._miss

    def lifetimes(self, hb: _Heartbeat):
        """Per-miss-lifetime facts shared by Dubois and OTF.

        Returns ``(fetch_row, cold, dirty, essential)`` — one entry per
        miss of the batch, in (group, time) order:

        * ``fetch_row`` — the row whose access fetched the block;
        * ``cold`` — the lifetime is its (block, processor)'s first;
        * ``dirty`` — some store to the block precedes the fetch;
        * ``essential`` — some access of the lifetime touched a word
          whose newest remote store postdates the processor's previous
          essential lifetime on the block (the paper's C-flag test).
        """
        if self._life is None:
            ctx = self.ctx
            rww = ctx.word_remote_rows()
            hb.phase()
            order, newg, gid_sorted, _ = self.groups()
            hb.phase()
            miss = self.miss_sorted()
            hb.phase()
            starts = np.flatnonzero(miss)
            fetch = order[starts]
            if len(starts):
                maxr = np.maximum.reduceat(rww[order], starts)
            else:
                maxr = np.empty(0, dtype=np.int32)
            cold = newg[starts]
            first_store, _, _, _ = self.store_summary()
            fsb = first_store[self.bid[fetch]]
            dirty = (fsb >= 0) & (fsb < fetch)
            hb.phase()
            ess = _essential_chain(gid_sorted[starts], maxr, fetch, hb)
            self._life = (fetch, cold, dirty, ess)
        return self._life


def _essential_chain(life_group: np.ndarray, maxr: np.ndarray,
                     fetch: np.ndarray, hb: _Heartbeat) -> np.ndarray:
    """Resolve the essential flag per lifetime, chained within groups.

    A lifetime is essential iff its newest relevant remote word store
    postdates the *fetch of the group's previous essential lifetime*
    (substituting the fetch for the oracle's clear position is exact: no
    remote store to the block can land inside an established lifetime —
    it would have ended it).  Only lifetimes with any remote word store
    at all (``maxr >= 0``) are candidates.

    The recurrence is solved by iterating ``flags -> (maxr > F(flags))``
    where ``F(flags)`` is each candidate's last flagged in-group
    predecessor's fetch, computed as one ``np.maximum.accumulate`` over
    values offset by ``group * big`` (fetches increase within a group,
    so the running max *is* the last flagged predecessor, and earlier
    groups' values stay below the current group's offset).  The map is
    antitone and its fixpoint is unique (induction over each group's
    candidates), so iterating from all-flagged converges exactly to the
    sequential chain, in practice within a handful of whole-array
    passes.
    """
    ess = np.zeros(len(maxr), dtype=bool)
    cand = np.flatnonzero(maxr >= 0)
    if not len(cand):
        return ess
    g = life_group[cand].astype(np.int64)
    r = maxr[cand].astype(np.int64)
    f = fetch[cand]
    big = int(f.max()) + 2
    base = g * big
    flagged_val = base + f + 1
    shifted = np.empty(len(cand), dtype=np.int64)
    flags = np.ones(len(cand), dtype=bool)
    while True:
        hb.pulse()
        vals = np.where(flags, flagged_val, base)
        shifted[0] = -1
        shifted[1:] = vals[:-1]
        F = np.maximum.accumulate(shifted)
        F -= base
        F -= 1
        np.maximum(F, -1, out=F)
        new = r > F
        if np.array_equal(new, flags):
            break
        flags = new
    ess[cand] = flags
    return ess


#: Miss class of each code :func:`dubois_lifetime_classes` returns.
DUBOIS_CLASSES = (MissClass.PC, MissClass.CTS, MissClass.CFS,
                  MissClass.PTS, MissClass.PFS)


def dubois_lifetime_classes(ctx: KernelContext, block_map):
    """Every miss of the batch with its Dubois class.

    Returns ``(fetch_row, code)`` — one entry per miss, in (block,
    processor, time) order: the row whose access missed and the index of
    its class in :data:`DUBOIS_CLASSES`.
    """
    hb = _Heartbeat(ctx.n)
    view = ctx.block_view(block_map.offset_bits)
    fetch, cold, dirty, ess = view.lifetimes(hb)
    code = np.where(cold, np.where(ess, 1, np.where(dirty, 2, 0)),
                    np.where(ess, 3, 4))
    hb.finish()
    return fetch, code


def dubois_kernel(ctx: KernelContext, block_map,
                  stats: Optional[Dict] = None) -> DuboisBreakdown:
    """Dubois et al.'s five-way classification, vectorized.

    Bit-identical to feeding the batch's rows through
    :class:`~repro.classify.dubois.DuboisClassifier`, the Appendix A
    transliteration (``data_refs`` is the batch's row count).
    """
    hb = _Heartbeat(ctx.n, stats)
    view = ctx.block_view(block_map.offset_bits)
    _, cold, dirty, ess = view.lifetimes(hb)
    ncold = ~cold
    ness = ~ess
    result = DuboisBreakdown(
        pc=int((cold & ness & ~dirty).sum()),
        cts=int((cold & ess).sum()),
        cfs=int((cold & ness & dirty).sum()),
        pts=int((ncold & ess).sum()),
        pfs=int((ncold & ness).sum()),
        data_refs=ctx.n,
    )
    hb.finish()
    return result


def eggers_kernel(ctx: KernelContext, block_map,
                  stats: Optional[Dict] = None) -> SimpleBreakdown:
    """Eggers & Katz's cold/true/false split, vectorized.

    An invalidation miss is true sharing iff some store to the missing
    word postdates the processor's previous access to the block: the
    oracle's per-word stale bits are reset (inclusively) by the first
    remote store after that access and OR-accumulated by later ones, and
    every store in that window is remote — the processor itself has no
    accesses there — so "newest store to the word > previous block
    access" is exactly the stale-bit test.
    """
    hb = _Heartbeat(ctx.n, stats)
    view = ctx.block_view(block_map.offset_bits)
    lastw = ctx.word_last_rows()
    hb.phase()
    order, newg, _, _ = view.groups()
    hb.phase()
    miss = view.miss_sorted()
    hb.phase()
    prev_g = view.prev_sorted()
    hb.phase()
    inval = miss & ~newg
    tsm = inval & (lastw[order] > prev_g)
    result = SimpleBreakdown(
        cold=int(newg.sum()),
        true_sharing=int(tsm.sum()),
        false_sharing=int((inval & ~tsm).sum()),
        data_refs=ctx.n,
    )
    hb.finish()
    return result


def torrellas_kernel(ctx: KernelContext, block_map,
                     stats: Optional[Dict] = None) -> SimpleBreakdown:
    """Torrellas et al.'s split, vectorized.

    Runs the miss test at both granularities: a block miss is cold when
    the word was never referenced by the processor, true sharing when
    the word system also misses (first word touch or a word store since
    the previous same-word access — necessarily remote, the processor's
    own word stores being word accesses), false sharing otherwise.
    """
    hb = _Heartbeat(ctx.n, stats)
    view = ctx.block_view(block_map.offset_bits)
    lastw = ctx.word_last_rows()
    hb.phase()
    wprev = ctx.word_prev()
    hb.phase()
    order, _, _, _ = view.groups()
    hb.phase()
    bm = view.miss_sorted()
    hb.phase()
    wprev_g = wprev[order]
    ft = wprev_g == NO_ROW
    wm = ft | (lastw[order] > wprev_g)
    warm = bm & ~ft
    result = SimpleBreakdown(
        cold=int((bm & ft).sum()),
        true_sharing=int((warm & wm).sum()),
        false_sharing=int((warm & ~wm).sum()),
        data_refs=ctx.n,
    )
    hb.finish()
    return result
