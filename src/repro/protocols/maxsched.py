"""MAX — worst-case invalidation propagation (paper section 4.0).

"MAX is not a protocol.  Rather, it corresponds to a worst-case scenario
for scheduling invalidations, consistent with the release consistency
model.  Stores from a given processor can be performed at any time between
the time they are issued by the processor and the next release in that
processor, and they can be performed out of program order.  Within these
limits, we schedule the invalidations of each store so as to maximize the
miss rate."

Adversary model
---------------
Each store issued by processor *p* at trace index *s* owns, for every other
processor *q*, one invalidation deliverable at any index in ``[s, d]``,
where *d* is *p*'s next release (end of trace if none).  An invalidation
delivered while *q* holds a copy destroys it; otherwise it is wasted.  The
adversary chooses delivery times to maximize misses.

Greedy schedule: at an access by *q* to a block it holds (copy fetched at
index *f*), any unspent invalidation with deadline ``d > f`` can be
delivered just before the access (its issue is necessarily ``<= t`` because
tokens are created as the trace advances), forcing a miss.  Spending rule:

* tokens whose deadline has passed (``d <= t``) can never kill a copy
  fetched later, so *all* of them are spent on this one miss;
* otherwise a single token with the earliest deadline is spent, saving
  later deadlines to kill future re-fetches (the ping-pong that makes MAX
  blow up for large blocks — and spectacularly for LU, as the paper notes).

This earliest-deadline greedy is optimal per (block, receiver) stream by
the standard exchange argument for interval matching.

Implementation note: stores by the same processor with the same deadline
are interchangeable, so tokens are *merged* per (block, issuer, deadline)
with a multiplicity and a per-receiver spent count.  This keeps the per-
access scan proportional to the number of open store windows (at most a
few per processor), not the number of stores.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List

import numpy as np

from ..errors import ProtocolError
from ..trace.events import RELEASE
from ..trace.trace import Trace
from .base import Protocol, register
from .results import ProtocolResult

_PRUNE_THRESHOLD = 24


class _TokenGroup:
    """All stores by one issuer sharing one deadline, for one block."""

    __slots__ = ("issuer", "deadline", "count", "spent")

    def __init__(self, issuer: int, deadline: int, num_procs: int):
        self.issuer = issuer
        self.deadline = deadline
        self.count = 0                     # stores merged into this group
        self.spent = [0] * num_procs       # kills consumed per receiver

    def available(self, proc: int) -> int:
        return self.count - self.spent[proc]


@register
class MAXSchedule(Protocol):
    """Adversarial invalidation timing maximizing the miss rate."""

    name = "MAX"

    def __init__(self, num_procs, block_map):
        super().__init__(num_procs, block_map)
        self._groups: Dict[int, List[_TokenGroup]] = {}
        # prune_at[block]: group count above which the block is re-pruned.
        self._prune_at: Dict[int, int] = {}
        # fetch_index[block]: per-proc index of the current copy's fetch.
        self._fetch_index: Dict[int, List[int]] = {}
        self._t = 0
        self._releases: List[List[int]] = []
        self._end_index = 0

    # ------------------------------------------------------------------
    # driver (needs event indices and precomputed release positions)
    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> ProtocolResult:
        if trace.num_procs > self.num_procs:
            raise ProtocolError(
                f"trace has {trace.num_procs} processors, protocol built "
                f"for {self.num_procs}")
        cols = trace.columns()
        rows = np.flatnonzero(cols.op == RELEASE)
        procs = cols.proc[rows]
        self._releases = [rows[procs == p].tolist()
                          for p in range(self.num_procs)]
        self._end_index = len(cols)
        return super().run(trace)

    def _deadline(self, proc: int, issue: int) -> int:
        """Index of ``proc``'s next release after ``issue`` (or end of trace)."""
        releases = self._releases[proc]
        k = bisect_right(releases, issue)
        return releases[k] if k < len(releases) else self._end_index

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------
    def on_load(self, proc: int, addr: int) -> None:
        self._adversarial_access(proc, addr)
        self._t += 1

    def on_store(self, proc: int, addr: int) -> None:
        self._adversarial_access(proc, addr)
        block = self.block_map.block_of(addr)
        deadline = self._deadline(proc, self._t)
        groups = self._groups.setdefault(block, [])
        for g in groups:
            if g.issuer == proc and g.deadline == deadline:
                g.count += 1
                break
        else:
            g = _TokenGroup(proc, deadline, self.num_procs)
            g.count = 1
            groups.append(g)
            if len(groups) > self._prune_at.get(block, _PRUNE_THRESHOLD):
                self._prune(block, groups)
        self.tracker.store_performed(proc, addr)
        self._t += 1

    def on_acquire(self, proc: int, addr: int) -> None:
        self._t += 1

    def on_release(self, proc: int, addr: int) -> None:
        self._t += 1

    # ------------------------------------------------------------------
    # the adversary
    # ------------------------------------------------------------------
    def _adversarial_access(self, proc: int, addr: int) -> None:
        block = self.block_map.block_of(addr)
        if self.has_copy(proc, block):
            fetched_at = self._fetch_index[block][proc]
            kills = self._spend_tokens(block, proc, fetched_at)
            if kills:
                self.drop_copy(proc, block)
                self._fetch(proc, block)
                self.counters.invalidations_sent += kills
        else:
            self._fetch(proc, block)
        self.tracker.access(proc, addr)

    def _spend_tokens(self, block: int, proc: int, fetched_at: int) -> int:
        """Spend invalidations to kill the current copy; returns how many."""
        groups = self._groups.get(block)
        if not groups:
            return 0
        t = self._t
        feasible = [g for g in groups
                    if g.issuer != proc and g.deadline > fetched_at
                    and g.available(proc) > 0]
        if not feasible:
            return 0
        forced = [g for g in feasible if g.deadline <= t]
        if forced:
            # Must all deliver by now: they land in this single epoch.
            kills = 0
            for g in forced:
                kills += g.available(proc)
                g.spent[proc] = g.count
            return kills
        best = min(feasible, key=lambda g: g.deadline)
        best.spent[proc] += 1
        return 1

    def _fetch(self, proc: int, block: int) -> None:
        self.fetch(proc, block)
        row = self._fetch_index.get(block)
        if row is None:
            row = [-1] * self.num_procs
            self._fetch_index[block] = row
        row[proc] = self._t

    def _prune(self, block: int, groups: List[_TokenGroup]) -> None:
        """Drop token groups that can no longer kill any copy.

        A dropped group's deadline has passed and no current holder can be
        killed by it, so it can never become feasible again: pruning later
        rather than sooner changes nothing but the scan lengths.  The block
        is re-pruned only once its groups outnumber twice the survivors,
        which keeps the pruning cost amortized O(1) per new group.
        """
        valid_mask = self.valid.get(block, 0)
        fetch_row = self._fetch_index.get(block)
        t = self._t
        keep: List[_TokenGroup] = []
        for g in groups:
            if g.deadline > t:
                keep.append(g)
                continue
            # Deadline passed: only useful against a currently-held copy
            # fetched before the deadline.
            alive = False
            remaining = valid_mask & ~(1 << g.issuer)
            if remaining and fetch_row is not None:
                for q in self.iter_procs(remaining):
                    if g.available(q) > 0 and fetch_row[q] < g.deadline:
                        alive = True
                        break
            if alive:
                keep.append(g)
        groups[:] = keep
        self._prune_at[block] = max(_PRUNE_THRESHOLD, 2 * len(keep))
