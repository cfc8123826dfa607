"""Property-based tests for the simulated multiprocessor."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.execution import ops
from repro.execution.scheduler import Machine
from repro.trace.events import LOAD, STORE


@st.composite
def programs(draw):
    """Random straight-line per-processor programs (no blocking)."""
    nproc = draw(st.integers(1, 4))
    bodies = []
    for _ in range(nproc):
        n = draw(st.integers(0, 20))
        body = [(draw(st.sampled_from((LOAD, STORE))),
                 draw(st.integers(0, 31))) for _ in range(n)]
        bodies.append(body)
    return nproc, bodies


def make_thread(body):
    def gen():
        for op, addr in body:
            yield (ops.MEM, op, addr)
    return gen()


@given(programs(), st.sampled_from(("rotate", "fixed", "random")))
@settings(max_examples=100, deadline=None)
def test_machine_emits_every_instruction_exactly_once(program, order):
    nproc, bodies = program
    machine = Machine(nproc, order=order, seed=7)
    trace = machine.run([make_thread(b) for b in bodies])
    assert len(trace) == sum(len(b) for b in bodies)
    streams = trace.per_processor()
    for p, body in enumerate(bodies):
        got = [(op, addr) for _, op, addr in streams.get(p, [])]
        assert got == body, f"P{p} program order broken under {order}"


@given(programs())
@settings(max_examples=60, deadline=None)
def test_cycles_bounded_by_longest_thread_and_total(program):
    nproc, bodies = program
    machine = Machine(nproc)
    trace = machine.run([make_thread(b) for b in bodies])
    total = sum(len(b) for b in bodies)
    longest = max((len(b) for b in bodies), default=0)
    cycles = trace.meta["cycles"]
    # Perfect parallelism bound below, serialization bound above.
    assert longest <= cycles <= max(total, longest) or total == 0


@given(programs(), st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_random_order_deterministic_per_seed(program, seed):
    nproc, bodies = program
    a = Machine(nproc, order="random", seed=seed).run(
        [make_thread(b) for b in bodies])
    b = Machine(nproc, order="random", seed=seed).run(
        [make_thread(body) for body in bodies])
    assert list(a) == list(b)


@given(programs())
@settings(max_examples=40, deadline=None)
def test_blocking_on_counter_preserves_order(program):
    """Insert a flag-style dependency: every processor waits for P0's
    first instruction.  The machine must still terminate and order P0's
    first event before all waiters' events."""
    nproc, bodies = program
    if not bodies or not bodies[0]:
        return
    state = {"go": False}

    def leader():
        op, addr = bodies[0][0]
        yield (ops.MEM, op, addr)
        state["go"] = True
        for op, addr in bodies[0][1:]:
            yield (ops.MEM, op, addr)

    def follower(body):
        def gen():
            yield ops.block_until(lambda: state["go"])
            for op, addr in body:
                yield (ops.MEM, op, addr)
        return gen()

    threads = [leader()] + [follower(b) for b in bodies[1:]]
    trace = Machine(nproc).run(threads)
    assert len(trace) == sum(len(b) for b in bodies)
    if len(trace) > 1:
        first_p0 = next(i for i, ev in enumerate(trace)
                        if ev[0] == 0)
        others_first = next((i for i, ev in enumerate(trace)
                             if ev[0] != 0), None)
        if others_first is not None:
            assert first_p0 < others_first
