"""Data-race detection over interleaved traces.

The delayed protocols (RD/SD/SRD) are only correct for programs that are
free of data races and conform to release consistency (paper section 5.0:
"applications must be free of data races and conform to the release
consistency model").  This module implements a vector-clock happens-before
checker (Djit+-style) so that every workload generator shipped with the
library can be *proven* race-free on its generated traces, and so users can
check their own traces before trusting RD/SD/SRD results.

Happens-before model
--------------------
* Program order: events of the same processor are ordered as they appear.
* Synchronization order: a ``RELEASE`` of sync variable *s* happens-before
  every later ``ACQUIRE`` of *s* (in trace order).  This covers both locks
  and the flag-style synchronization used by ANL barriers.

Two data accesses to the same word *conflict* if at least one is a store and
they come from different processors.  A trace is racy iff some conflicting
pair is unordered by the transitive closure of the above.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import DataRaceError
from .events import ACQUIRE, LOAD, RELEASE, STORE, format_event
from .trace import Trace


class VectorClock(dict):
    """Sparse vector clock: missing entries are zero."""

    def joined(self, other: "VectorClock") -> None:
        """In-place join (element-wise max)."""
        for p, t in other.items():
            if self.get(p, 0) < t:
                self[p] = t

    def dominates(self, other: Dict[int, int]) -> bool:
        """True if self[p] >= other[p] for all p."""
        for p, t in other.items():
            if self.get(p, 0) < t:
                return False
        return True

    def copy(self) -> "VectorClock":
        return VectorClock(self)


class RaceReport:
    """Outcome of a race check: either clean or a list of races found."""

    def __init__(self, races: List[Tuple[Tuple[int, tuple], Tuple[int, tuple]]]):
        #: List of ``((index1, event1), (index2, event2))`` conflicting pairs.
        self.races = races

    @property
    def is_race_free(self) -> bool:
        return not self.races

    def __bool__(self) -> bool:
        return self.is_race_free

    def describe(self, limit: int = 5) -> str:
        if self.is_race_free:
            return "race-free"
        lines = [f"{len(self.races)} data race(s) detected:"]
        for (i1, e1), (i2, e2) in self.races[:limit]:
            lines.append(f"  T{i1} {format_event(e1)}  <racy with>  "
                         f"T{i2} {format_event(e2)}")
        if len(self.races) > limit:
            lines.append(f"  ... {len(self.races) - limit} more")
        return "\n".join(lines)


def check_races(trace: Trace, *, max_races: int = 16) -> RaceReport:
    """Run the happens-before checker; return a :class:`RaceReport`.

    Stops collecting after ``max_races`` distinct racy pairs (the checker
    keeps running so per-word state stays consistent, it just stops
    recording).
    """
    nprocs = trace.num_procs
    clocks = [VectorClock({p: 1}) for p in range(nprocs)]
    sync_clocks: Dict[int, VectorClock] = {}
    # Per word: last writer (proc, clock, index) and last readers {proc: (clock, index)}.
    last_write: Dict[int, Tuple[int, int, int]] = {}
    last_reads: Dict[int, Dict[int, Tuple[int, int]]] = {}
    races: List[Tuple[Tuple[int, tuple], Tuple[int, tuple]]] = []
    events = list(trace)

    def record(i1: int, i2: int) -> None:
        if len(races) < max_races:
            races.append(((i1, events[i1]), (i2, events[i2])))

    for index, (proc, op, addr) in enumerate(events):
        clock = clocks[proc]
        if op == ACQUIRE:
            released = sync_clocks.get(addr)
            if released is not None:
                clock.joined(released)
        elif op == RELEASE:
            sync_clocks[addr] = clock.copy()
            clock[proc] = clock.get(proc, 0) + 1
        elif op == LOAD:
            write = last_write.get(addr)
            if write is not None:
                wproc, wclock, windex = write
                if wproc != proc and clock.get(wproc, 0) < wclock:
                    record(windex, index)
            last_reads.setdefault(addr, {})[proc] = (clock.get(proc, 0), index)
        elif op == STORE:
            write = last_write.get(addr)
            if write is not None:
                wproc, wclock, windex = write
                if wproc != proc and clock.get(wproc, 0) < wclock:
                    record(windex, index)
            for rproc, (rclock, rindex) in last_reads.get(addr, {}).items():
                if rproc != proc and clock.get(rproc, 0) < rclock:
                    record(rindex, index)
            last_write[addr] = (proc, clock.get(proc, 0), index)
            last_reads[addr] = {}
    return RaceReport(races)


def assert_race_free(trace: Trace) -> None:
    """Raise :class:`~repro.errors.DataRaceError` if the trace is racy."""
    report = check_races(trace, max_races=4)
    if not report.is_race_free:
        (i1, e1), (i2, e2) = report.races[0]
        raise DataRaceError(
            f"trace {trace.name or '<anonymous>'} is not race-free: "
            + report.describe(limit=2),
            first=(i1, e1), second=(i2, e2))


def sync_pairs_balanced(trace: Trace) -> Optional[str]:
    """Heuristic check that *lock-style* acquires are eventually released.

    Release consistency permits two synchronization styles:

    * lock style — the same processor acquires and later releases the same
      variable (ANL locks);
    * flag style — one processor releases a variable that others only ever
      acquire (ANL barrier flags, LU column flags).

    A variable is treated as lock-style for a processor when that processor
    both acquires and releases it; for those, a surplus of acquires at end
    of trace indicates a leaked critical section (a generator bug) and is
    reported.  Flag-style imbalance is legal and ignored.  Returns None
    when consistent, else a description of the first problem.
    """
    acquires: Dict[tuple, int] = {}
    releases: Dict[tuple, int] = {}
    for proc, op, addr in trace:
        if op == ACQUIRE:
            acquires[(proc, addr)] = acquires.get((proc, addr), 0) + 1
        elif op == RELEASE:
            releases[(proc, addr)] = releases.get((proc, addr), 0) + 1
    for (proc, addr), acq_count in sorted(acquires.items()):
        rel_count = releases.get((proc, addr), 0)
        if rel_count and acq_count > rel_count:
            return (f"processor {proc} leaked lock {addr:#x}: "
                    f"{acq_count} acquires vs {rel_count} releases")
    return None
