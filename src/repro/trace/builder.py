"""Fluent builder for small hand-written traces.

The paper's Figures 1-4 are tiny two-processor reference sequences; the
builder makes those (and unit tests) readable:

>>> from repro.trace import TraceBuilder
>>> t = (TraceBuilder(num_procs=2)
...      .store(0, 0)        # T0: P0 stores word 0
...      .load(1, 0)         # T1: P1 loads word 0
...      .build("fig1"))
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import TraceError
from .events import ACQUIRE, Event, LOAD, RELEASE, STORE, make_event
from .trace import Trace


class TraceBuilder:
    """Accumulates events in interleaved order; see module docstring."""

    def __init__(self, num_procs: int):
        if num_procs <= 0:
            raise TraceError(f"num_procs must be positive, got {num_procs}")
        self.num_procs = num_procs
        self._events: List[Event] = []

    # ------------------------------------------------------------------
    # one event at a time
    # ------------------------------------------------------------------
    def _emit(self, proc: int, op: int, addr: int) -> "TraceBuilder":
        if not 0 <= proc < self.num_procs:
            raise TraceError(
                f"processor {proc} out of range for {self.num_procs} processors")
        self._events.append(make_event(proc, op, addr))
        return self

    def load(self, proc: int, addr: int) -> "TraceBuilder":
        """Append ``LOAD addr`` by ``proc``."""
        return self._emit(proc, LOAD, addr)

    def store(self, proc: int, addr: int) -> "TraceBuilder":
        """Append ``STORE addr`` by ``proc``."""
        return self._emit(proc, STORE, addr)

    def acquire(self, proc: int, addr: int) -> "TraceBuilder":
        """Append an ``ACQUIRE`` of sync variable ``addr`` by ``proc``."""
        return self._emit(proc, ACQUIRE, addr)

    def release(self, proc: int, addr: int) -> "TraceBuilder":
        """Append a ``RELEASE`` of sync variable ``addr`` by ``proc``."""
        return self._emit(proc, RELEASE, addr)

    # ------------------------------------------------------------------
    # bulk helpers
    # ------------------------------------------------------------------
    def loads(self, proc: int, addrs) -> "TraceBuilder":
        """Append a LOAD per address."""
        for a in addrs:
            self.load(proc, a)
        return self

    def stores(self, proc: int, addrs) -> "TraceBuilder":
        """Append a STORE per address."""
        for a in addrs:
            self.store(proc, a)
        return self

    def critical_section(self, proc: int, lock_addr: int, body) -> "TraceBuilder":
        """Append ``ACQUIRE lock; body(self); RELEASE lock``."""
        self.acquire(proc, lock_addr)
        body(self)
        return self.release(proc, lock_addr)

    def extend(self, events) -> "TraceBuilder":
        """Append raw ``(proc, op, addr)`` tuples."""
        for proc, op, addr in events:
            self._emit(proc, op, addr)
        return self

    # ------------------------------------------------------------------
    # finishing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    def build(self, name: str = "", meta: Optional[dict] = None) -> Trace:
        """Produce the (validated) :class:`~repro.trace.trace.Trace`."""
        # Trace packs the events into its own columns, so the builder may
        # be extended afterwards.
        return Trace(self._events, self.num_procs, name=name, meta=meta)
