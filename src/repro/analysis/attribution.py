"""Per-data-structure miss attribution.

The paper explains each benchmark's Figure 5 curve by pointing at specific
data structures ("false sharing misses are due to modifications of
particles and of space cells", "parts of the false sharing ... because of
the particular implementation of barriers").  This module makes that
analysis mechanical: every miss is attributed to the region (data
structure) containing the *word whose access missed*, producing a
per-region five-way breakdown.

Workload-generated traces carry their region table in
``trace.meta["regions"]``; any ``[(name, base_word, words), ...]`` table
works.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..classify.breakdown import DuboisBreakdown
from ..errors import ConfigError
from ..kernels.classifiers import KernelContext, dubois_lifetime_classes
from ..mem.addresses import BlockMap
from ..trace.trace import Trace
from .report import format_table

#: Label for misses on words outside every region.
UNMAPPED = "<unmapped>"


class RegionTable:
    """Sorted lookup from word address to region name."""

    def __init__(self, regions: Sequence[Tuple[str, int, int]]):
        cleaned = sorted((int(base), int(words), str(name))
                         for name, base, words in regions)
        self._bases: List[int] = []
        self._ends: List[int] = []
        self._names: List[str] = []
        last_end = -1
        for base, words, name in cleaned:
            if words <= 0:
                raise ConfigError(f"region {name!r} has size {words}")
            if base < last_end:
                raise ConfigError(
                    f"region {name!r} overlaps its predecessor")
            self._bases.append(base)
            self._ends.append(base + words)
            self._names.append(name)
            last_end = base + words

    @classmethod
    def from_trace(cls, trace: Trace) -> "RegionTable":
        """Build from ``trace.meta['regions']`` (workload-generated traces)."""
        regions = trace.meta.get("regions")
        if not regions:
            raise ConfigError(
                "trace carries no region table (meta['regions']); pass "
                "regions explicitly")
        return cls([(r[0], r[1], r[2]) for r in regions])

    def name_of(self, word_addr: int) -> str:
        """Region name containing ``word_addr`` (or :data:`UNMAPPED`)."""
        i = bisect_right(self._bases, word_addr) - 1
        if i >= 0 and word_addr < self._ends[i]:
            return self._names[i]
        return UNMAPPED

    @property
    def names(self) -> List[str]:
        return list(self._names)


@dataclass(frozen=True)
class AttributionResult:
    """Misses grouped by data structure at one block size."""

    trace_name: str
    block_bytes: int
    by_region: Dict[str, DuboisBreakdown]

    def top_false_sharers(self, limit: int = 5) -> List[Tuple[str, int]]:
        """Regions ranked by useless (PFS) misses."""
        ranked = sorted(((name, bd.pfs) for name, bd in self.by_region.items()),
                        key=lambda kv: -kv[1])
        return [kv for kv in ranked[:limit] if kv[1] > 0]

    def format(self) -> str:
        headers = ["region", "PC", "CTS", "CFS", "PTS", "PFS", "total"]
        rows = []
        for name, bd in sorted(self.by_region.items(),
                               key=lambda kv: -kv[1].total):
            rows.append([name, bd.pc, bd.cts, bd.cfs, bd.pts, bd.pfs,
                         bd.total])
        return format_table(
            headers, rows,
            title=f"{self.trace_name} @ B={self.block_bytes}: misses by "
                  f"data structure")


def _classification_order(ctx: KernelContext, fetch: np.ndarray,
                          offset_bits: int) -> np.ndarray:
    """Permutation of the misses into the order Appendix A classifies them.

    A lifetime is classified when it ends: at the first store to its
    block by another processor after the fetch (lifetimes ended by one
    store go in processor order), else at the end of the trace (blocks in
    first-access order, then processor order).
    """
    n = ctx.n
    bid = ctx.addr >> offset_bits
    order = np.argsort(bid, kind="stable")        # (block, time) order
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    sorted_bid = bid[order]
    spos = np.flatnonzero(ctx.store8[order])      # stores, in that order
    m = len(spos)
    sblock = np.append(sorted_bid[spos], -1)      # slot m: "no store"
    sproc = np.append(ctx.proc[order[spos]], -1)
    srow = np.append(order[spos], 0)
    # Per store: the block's next store by a different processor (the
    # first store of the next same-block run of one processor's stores).
    new_run = np.ones(m, dtype=bool)
    new_run[1:] = ((sblock[1:m] != sblock[:m - 1])
                   | (sproc[1:m] != sproc[:m - 1]))
    starts = np.flatnonzero(new_run)
    other = np.append(np.append(starts[1:], m)[np.cumsum(new_run) - 1], m)
    other[sblock[other] != sblock] = m
    fblock, fproc = bid[fetch], ctx.proc[fetch]
    end = np.searchsorted(spos, pos[fetch], side="right")
    end[sblock[end] != fblock] = m
    end = np.where(sproc[end] == fproc, other[end], end)
    first_row = order[np.searchsorted(sorted_bid, fblock)]
    key = np.where(end < m, srow[end], n + first_row)
    return np.lexsort((fproc, key))


def attribute_misses(trace: Trace, block_bytes: int,
                     regions: Optional[Sequence[Tuple[str, int, int]]] = None
                     ) -> AttributionResult:
    """Classify ``trace`` and attribute every miss to a data structure.

    A miss is charged to the region containing the word whose access
    triggered it.  (A block can span regions; charging the faulting word
    is what identifies the structure whose *access pattern* pays for the
    miss — e.g. a barrier flag read that keeps missing because the
    adjacent counter word is write-shared.)
    """
    table = (RegionTable(regions) if regions is not None
             else RegionTable.from_trace(trace))
    ctx = KernelContext.from_trace(trace)
    block_map = BlockMap(block_bytes)
    fetch, code = dubois_lifetime_classes(ctx, block_map)
    # Regions are listed in the order their first miss is classified.
    order = _classification_order(ctx, fetch, block_map.offset_bits)
    counts: Dict[str, List[int]] = {}
    for word, c in zip(ctx.addr[fetch[order]].tolist(),
                       code[order].tolist()):
        counts.setdefault(table.name_of(word), [0] * 5)[c] += 1
    by_region = {
        name: DuboisBreakdown(*per, data_refs=ctx.n)
        for name, per in counts.items()}
    return AttributionResult(trace_name=trace.name or "<anonymous>",
                             block_bytes=block_bytes, by_region=by_region)
