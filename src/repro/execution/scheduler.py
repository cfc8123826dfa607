"""Cycle-based cooperative scheduler for simulated parallel programs.

A :class:`Machine` runs one generator *thread* per processor.  Time advances
in cycles; in each cycle every non-blocked processor executes exactly one
event-producing operation (loads, stores, acquires, releases each take one
cycle — the "perfect memory system" of the paper's Table 2 speedup
definition).  Blocked processors consume the cycle without emitting events.

The interleaving produced is deterministic for a given ``order`` policy and
seed, which is the point: the paper switched from execution-driven to
trace-driven simulation precisely so all protocols see the same interleaved
trace (section 5.0).  The machine produces that trace once; the protocol
simulators then replay it.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterator, List, Optional, Sequence

from ..errors import DeadlockError, SimulationError
from ..trace.events import ACQUIRE, LOAD, RELEASE, STORE
from ..trace.trace import Trace
from .ops import BLOCK, MEM, SYNC

ThreadBody = Iterator  # a generator yielding ops


class _ThreadState:
    __slots__ = ("gen", "blocked_on", "done", "events_executed")

    def __init__(self, gen: ThreadBody):
        self.gen = gen
        self.blocked_on: Optional[Callable[[], bool]] = None
        self.done = False
        self.events_executed = 0


class Machine:
    """A simulated ``num_procs``-processor shared-memory machine.

    Parameters
    ----------
    num_procs:
        Number of processors; thread ``i`` runs on processor ``i``.
    order:
        Per-cycle processor scan order: ``"rotate"`` (default — start the
        scan one processor later each cycle, a fair round-robin), ``"fixed"``
        (always scan 0..N-1) or ``"random"`` (seeded shuffle each cycle).
    seed:
        Seed for the ``"random"`` order policy.
    """

    def __init__(self, num_procs: int, *, order: str = "rotate", seed: int = 0):
        if num_procs <= 0:
            raise SimulationError(f"num_procs must be positive, got {num_procs}")
        if order not in ("rotate", "fixed", "random"):
            raise SimulationError(f"unknown order policy {order!r}")
        self.num_procs = num_procs
        self.order = order
        self.seed = seed

    def run(self, threads: Sequence[ThreadBody], *, name: str = "",
            meta: Optional[dict] = None, max_cycles: int = 200_000_000) -> Trace:
        """Run the threads to completion and return the interleaved trace.

        ``threads[i]`` runs on processor ``i``; fewer threads than
        processors is allowed (idle processors emit nothing).
        """
        if len(threads) > self.num_procs:
            raise SimulationError(
                f"{len(threads)} threads for {self.num_procs} processors")
        states: Dict[int, _ThreadState] = {
            i: _ThreadState(gen) for i, gen in enumerate(threads)}
        events: List[tuple] = []
        rng = random.Random(self.seed)
        cycles = 0
        live = [i for i in states]

        while live:
            if cycles >= max_cycles:
                raise SimulationError(
                    f"execution exceeded {max_cycles} cycles "
                    f"({len(events)} events so far)")
            scan = self._scan_order(live, cycles, rng)
            progressed = False
            all_blocked = True
            for proc in scan:
                state = states[proc]
                if state.done:
                    continue
                emitted = self._step(proc, state, events)
                if emitted:
                    progressed = True
                if state.blocked_on is None:
                    all_blocked = False
            live = [i for i in live if not states[i].done]
            # A cycle in which nothing ran and nobody is left (the scan that
            # merely discovered termination) costs no simulated time.
            if progressed or live:
                cycles += 1
            if live and not progressed and all_blocked:
                # A thread may have unblocked, run non-emitting code that
                # satisfied someone else's predicate (e.g. a flag set) and
                # re-blocked, all within this cycle.  Re-evaluate before
                # declaring deadlock: only a cycle where every live thread
                # is blocked on a *currently false* predicate is stuck.
                if not any(states[i].blocked_on is not None
                           and states[i].blocked_on() for i in live):
                    raise DeadlockError(
                        f"deadlock at cycle {cycles}: processors {live} all "
                        f"blocked ({len(events)} events emitted)")

        full_meta = dict(meta or {})
        full_meta.setdefault("cycles", cycles)
        full_meta.setdefault("num_procs", self.num_procs)
        return Trace(events, self.num_procs, name=name, meta=full_meta,
                     validate=False)

    # ------------------------------------------------------------------
    def _scan_order(self, live: List[int], cycle: int,
                    rng: random.Random) -> List[int]:
        if self.order == "fixed" or len(live) == 1:
            return live
        if self.order == "rotate":
            k = cycle % len(live)
            return live[k:] + live[:k]
        shuffled = list(live)
        rng.shuffle(shuffled)
        return shuffled

    def _step(self, proc: int, state: _ThreadState, events: List[tuple]) -> bool:
        """Advance one processor by at most one event; True if one was emitted."""
        # A blocked processor re-evaluates its predicate; if still false the
        # cycle is spent waiting.
        if state.blocked_on is not None:
            if not state.blocked_on():
                return False
            state.blocked_on = None
        while True:
            try:
                op = next(state.gen)
            except StopIteration:
                state.done = True
                return False
            kind = op[0]
            if kind == MEM:
                _, memop, addr = op
                if memop not in (LOAD, STORE):
                    raise SimulationError(f"bad mem op {op!r} from P{proc}")
                events.append((proc, memop, addr))
                state.events_executed += 1
                return True
            if kind == SYNC:
                _, syncop, addr = op
                if syncop not in (ACQUIRE, RELEASE):
                    raise SimulationError(f"bad sync op {op!r} from P{proc}")
                events.append((proc, syncop, addr))
                state.events_executed += 1
                return True
            if kind == BLOCK:
                predicate = op[1]
                if predicate():
                    # Not actually blocked: fall through and pull the next
                    # op within the same cycle (blocking is free when the
                    # condition already holds).
                    continue
                state.blocked_on = predicate
                return False
            raise SimulationError(f"unknown op {op!r} from P{proc}")


def run_threads(num_procs: int, thread_factory: Callable[[int], ThreadBody],
                *, name: str = "", meta: Optional[dict] = None,
                order: str = "rotate", seed: int = 0) -> Trace:
    """Convenience wrapper: build one thread per processor and run.

    ``thread_factory(tid)`` must return a fresh generator for thread ``tid``.
    """
    machine = Machine(num_procs, order=order, seed=seed)
    threads = [thread_factory(tid) for tid in range(num_procs)]
    return machine.run(threads, name=name, meta=meta)
