"""Common machinery for the invalidation-schedule simulators.

All protocols simulate infinite private caches per processor over a fixed
interleaved trace (trace-driven simulation, paper section 5.0).  A protocol
consumes the four event kinds (load/store/acquire/release) and maintains:

* per-processor block validity (plus protocol-specific state: ownership,
  invalidation buffers, store buffers, per-word dirty bits...);
* a :class:`~repro.protocols.lifetime.LifetimeTracker` that attributes each
  miss to PC/CTS/CFS/PTS/PFS;
* :class:`~repro.protocols.results.Counters` for traffic accounting.

Subclasses implement the four ``on_*`` handlers; the base class provides the
trace-driving loop and the shared fetch/invalidate helpers that keep cache
state and the tracker in sync.
"""

from __future__ import annotations

from typing import Dict, Type

from ..errors import ProtocolError
from ..mem.addresses import BlockMap
from ..runtime import signals
from ..trace.events import ACQUIRE, LOAD, RELEASE, STORE
from ..trace.trace import Trace
from .lifetime import LifetimeTracker
from .results import Counters, ProtocolResult


class Protocol:
    """Base class for invalidation-schedule simulators.

    Parameters
    ----------
    num_procs:
        Processor count of the trace to be simulated.
    block_map:
        The block size configuration.
    """

    #: Short name used in reports and the registry ("OTF", "MIN", ...).
    name: str = "?"

    def __init__(self, num_procs: int, block_map: BlockMap):
        if num_procs <= 0:
            raise ProtocolError(f"num_procs must be positive, got {num_procs}")
        self.num_procs = num_procs
        self.block_map = block_map
        self.tracker = LifetimeTracker(num_procs, block_map)
        self.counters = Counters()
        # valid[block]: bitmask of processors with a (possibly stale) copy.
        self.valid: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # cache-state helpers shared by all protocols
    # ------------------------------------------------------------------
    def has_copy(self, proc: int, block: int) -> bool:
        """True if ``proc`` currently caches ``block``."""
        return bool(self.valid.get(block, 0) & (1 << proc))

    def fetch(self, proc: int, block: int) -> None:
        """Bring ``block`` into ``proc``'s cache (a miss)."""
        self.valid[block] = self.valid.get(block, 0) | (1 << proc)
        self.tracker.fetch(proc, block)
        self.counters.fetches += 1

    def drop_copy(self, proc: int, block: int) -> None:
        """Destroy ``proc``'s copy of ``block`` (classifies the lifetime)."""
        mask = self.valid.get(block, 0)
        bit = 1 << proc
        if not mask & bit:
            raise ProtocolError(
                f"P{proc} has no copy of block {block:#x} to invalidate")
        self.valid[block] = mask & ~bit
        self.tracker.invalidate(proc, block)
        self.counters.invalidations_applied += 1

    def ensure_copy(self, proc: int, block: int) -> bool:
        """Fetch ``block`` for ``proc`` unless cached; True if it missed."""
        if self.has_copy(proc, block):
            return False
        self.fetch(proc, block)
        return True

    def copies_other_than(self, proc: int, block: int) -> int:
        """Bitmask of processors other than ``proc`` caching ``block``."""
        return self.valid.get(block, 0) & ~(1 << proc)

    @staticmethod
    def iter_procs(mask: int):
        """Iterate processor ids set in a bitmask."""
        while mask:
            low = mask & -mask
            mask ^= low
            yield low.bit_length() - 1

    # ------------------------------------------------------------------
    # event handlers (subclass responsibility)
    # ------------------------------------------------------------------
    def on_load(self, proc: int, addr: int) -> None:
        raise NotImplementedError

    def on_store(self, proc: int, addr: int) -> None:
        raise NotImplementedError

    def on_acquire(self, proc: int, addr: int) -> None:
        """Default: synchronization accesses don't change cache state."""

    def on_release(self, proc: int, addr: int) -> None:
        """Default: synchronization accesses don't change cache state."""

    def on_end(self) -> None:
        """Hook run after the last event, before classification of live

        lifetimes (e.g. SD flushes its store buffers here)."""

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def run(self, trace: Trace) -> ProtocolResult:
        """Simulate the whole trace and return the result."""
        if trace.num_procs > self.num_procs:
            raise ProtocolError(
                f"trace has {trace.num_procs} processors, protocol built "
                f"for {self.num_procs}")
        on_load, on_store = self.on_load, self.on_store
        on_acquire, on_release = self.on_acquire, self.on_release
        # The event loop is chunked so long simulations stay interruptible
        # and heartbeat-visible without paying any per-event overhead: the
        # progress tick (which doubles as a cancellation point) runs once
        # per HEARTBEAT_CHUNK events, not once per event.  Each chunk is
        # decoded from the columns as it is reached, so no whole-trace
        # tuple list is ever built.
        columns = trace.columns()
        step = signals.HEARTBEAT_CHUNK
        for start in range(0, len(columns), step):
            for proc, op, addr in columns[start:start + step]:
                if op == LOAD:
                    on_load(proc, addr)
                elif op == STORE:
                    on_store(proc, addr)
                elif op == ACQUIRE:
                    on_acquire(proc, addr)
                elif op == RELEASE:
                    on_release(proc, addr)
            signals.note_progress(min(step, len(columns) - start))
        self.on_end()
        breakdown = self.tracker.finish()
        return ProtocolResult(
            protocol=self.name,
            trace_name=trace.name or "<anonymous>",
            block_bytes=self.block_map.block_bytes,
            num_procs=self.num_procs,
            breakdown=breakdown,
            counters=self.counters,
            replacement_misses=self.counters.replacements,
        )


#: Registry of protocol classes by name, filled by the submodules.
PROTOCOL_REGISTRY: Dict[str, Type[Protocol]] = {}


def register(cls: Type[Protocol]) -> Type[Protocol]:
    """Class decorator adding a protocol to :data:`PROTOCOL_REGISTRY`."""
    if cls.name in PROTOCOL_REGISTRY:
        raise ProtocolError(f"duplicate protocol name {cls.name!r}")
    PROTOCOL_REGISTRY[cls.name] = cls
    return cls
