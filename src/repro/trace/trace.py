"""The :class:`Trace` container.

A trace is an interleaved, *totally ordered* sequence of events from a fixed
number of processors (the paper uses trace-driven simulation precisely so
that the interleaving is fixed across protocol experiments — section 5.0).

A trace stores exactly one representation: a
:class:`~repro.trace.columnar.TraceColumns`, three parallel int64 NumPy
arrays.  Tuple input is validated and packed into columns at construction.
Iterating a trace is the one decoder back to ``(proc, op, addr)`` tuples;
every other method works on the columns directly.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from ..errors import TraceError
from .columnar import TraceColumns
from .events import (
    ACQUIRE,
    Event,
    LOAD,
    RELEASE,
    STORE,
    format_event,
    validate_event,
)


class Trace:
    """An immutable-by-convention interleaved reference trace.

    Parameters
    ----------
    events:
        Iterable of ``(proc, op, addr)`` tuples in global (interleaved)
        order, packed into columns at once, or a
        :class:`~repro.trace.columnar.TraceColumns` holding the same data
        (stored by reference, zero-copy).
    num_procs:
        Number of processors.  If omitted it is inferred as ``max(proc)+1``.
    name:
        Optional human-readable name (e.g. ``"MP3D1000"``).
    meta:
        Free-form metadata dictionary (workload configuration, seed, the
        simulated data-set size, ...).  Stored by reference.
    validate:
        When true (default), every event is checked for well-formedness
        (tuple input before packing, so the error names the bad event).
    """

    __slots__ = ("_columns", "num_procs", "name", "meta")

    def __init__(self,
                 events: Union[Iterable[Event], TraceColumns],
                 num_procs: Optional[int] = None,
                 *, name: str = "", meta: Optional[dict] = None,
                 validate: bool = True):
        if isinstance(events, TraceColumns):
            columns = events
        else:
            if not isinstance(events, list):
                events = list(events)
            if validate:
                for ev in events:
                    validate_event(ev)
            columns = TraceColumns.from_events(events)
        if num_procs is None:
            num_procs = columns.infer_num_procs()
        if num_procs <= 0:
            raise TraceError(f"num_procs must be positive, got {num_procs}")
        if validate:
            columns.validate(num_procs)
        self._columns: TraceColumns = columns
        self.num_procs: int = num_procs
        self.name: str = name
        self.meta: dict = dict(meta or {})

    def columns(self) -> TraceColumns:
        """The trace's columns (stored, never copied)."""
        return self._columns

    # ------------------------------------------------------------------
    # sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._columns)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._columns)

    def __getitem__(self, index):
        if isinstance(index, slice):
            # NumPy views: slicing never copies.
            return Trace(self._columns[index], self.num_procs,
                         name=self.name, meta=self.meta, validate=False)
        return self._columns[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.num_procs == other.num_procs
                and self._columns == other._columns)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f" {self.name!r}" if self.name else ""
        return (f"<Trace{label}: {len(self)} events, "
                f"{self.num_procs} procs>")

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def per_processor(self) -> Dict[int, List[Event]]:
        """Split into per-processor streams (program order preserved)."""
        cols = self._columns
        return {p: list(cols.take(rows)) for p, rows
                in enumerate(cols.per_processor_indices(self.num_procs))}

    def touched_words(self) -> set:
        """Set of word addresses touched by data accesses."""
        return set(self._columns.touched_words().tolist())

    def touched_blocks(self, block_map) -> set:
        """Set of block addresses touched by data accesses."""
        cols = self._columns
        blocks = cols.block_ids(block_map.offset_bits)[cols.data_mask()]
        return set(np.unique(blocks).tolist())

    def counts(self) -> "TraceCounts":
        """Event counts by opcode (see :class:`TraceCounts`)."""
        per_op = self._columns.op_counts()
        return TraceCounts(int(per_op[LOAD]), int(per_op[STORE]),
                           int(per_op[ACQUIRE]), int(per_op[RELEASE]))

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    def concat(self, other: "Trace") -> "Trace":
        """Concatenate two traces over the same processor count."""
        if other.num_procs != self.num_procs:
            raise TraceError(
                f"cannot concat traces with {self.num_procs} and "
                f"{other.num_procs} processors")
        return Trace(self._columns.concat(other._columns), self.num_procs,
                     name=self.name, meta=self.meta, validate=False)

    def head(self, n: int) -> "Trace":
        """First ``n`` events as a new trace."""
        return self[:n]

    def sample(self, fraction: float, *, granularity: int = 10_000) -> "Trace":
        """Deterministic prefix-of-window sampling for quick experiments.

        Keeps the first ``fraction`` of every ``granularity``-event window.
        This preserves local interleaving structure (unlike random event
        sampling, which would tear synchronization pairs apart).  Sampling is
        an approximation: cold-miss counts are biased high relative to a full
        run, which is documented in EXPERIMENTS.md wherever it is used.
        """
        if not 0.0 < fraction <= 1.0:
            raise TraceError(f"sample fraction must be in (0, 1], got {fraction}")
        if fraction == 1.0:
            return self
        keep = max(1, int(granularity * fraction))
        rows = np.arange(len(self))
        return Trace(self._columns.take(rows[rows % granularity < keep]),
                     self.num_procs, name=f"{self.name}~{fraction}",
                     meta=self.meta, validate=False)

    def format(self, limit: int = 20) -> str:
        """Multi-line human-readable rendering of the first ``limit`` events."""
        n = len(self)
        lines = [f"Trace {self.name or '<anonymous>'} "
                 f"({n} events, {self.num_procs} procs)"]
        for i, ev in enumerate(self[:limit]):
            lines.append(f"  T{i}: {format_event(ev)}")
        if n > limit:
            lines.append(f"  ... {n - limit} more")
        return "\n".join(lines)


class TraceCounts:
    """Opcode counts of a trace (reads/writes/acquires/releases)."""

    __slots__ = ("loads", "stores", "acquires", "releases")

    def __init__(self, loads: int, stores: int, acquires: int, releases: int):
        self.loads = loads
        self.stores = stores
        self.acquires = acquires
        self.releases = releases

    @property
    def data(self) -> int:
        """Total data references (the denominator of every miss rate)."""
        return self.loads + self.stores

    @property
    def total(self) -> int:
        return self.data + self.acquires + self.releases

    def as_dict(self) -> dict:
        return {"loads": self.loads, "stores": self.stores,
                "acquires": self.acquires, "releases": self.releases}

    def __eq__(self, other) -> bool:
        if not isinstance(other, TraceCounts):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceCounts(loads={self.loads}, stores={self.stores}, "
                f"acquires={self.acquires}, releases={self.releases})")


def merge_program_order(streams: Dict[int, Iterable[Event]],
                        order: Iterable[int]) -> Trace:
    """Rebuild an interleaved trace from per-processor streams.

    ``order`` gives, for each global position, the processor whose next
    event is taken.  This is the inverse of :meth:`Trace.per_processor` and
    is used by the interleaving utilities and tests.
    """
    iters = {p: iter(s) for p, s in streams.items()}
    events: List[Event] = []
    for p in order:
        try:
            events.append(next(iters[p]))
        except StopIteration:
            raise TraceError(f"order names processor {p} past end of its stream")
        except KeyError:
            raise TraceError(f"order names unknown processor {p}")
    for p, it in iters.items():
        leftover = next(it, None)
        if leftover is not None:
            raise TraceError(f"order leaves events of processor {p} unconsumed")
    return Trace(events, num_procs=max(streams) + 1 if streams else 1,
                 validate=False)
