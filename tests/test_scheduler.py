"""Unit tests for the simulated multiprocessor scheduler."""

import pytest

from repro.errors import DeadlockError, SimulationError
from repro.execution import ops
from repro.execution.scheduler import Machine, run_threads
from repro.trace.events import LOAD, STORE


def emitter(proc_word, count):
    def gen():
        for i in range(count):
            yield ops.load(proc_word + i)
    return gen()


class TestBasicExecution:
    def test_single_thread(self):
        m = Machine(1)
        t = m.run([emitter(0, 3)], name="one")
        assert list(t) == [(0, LOAD, 0), (0, LOAD, 1), (0, LOAD, 2)]
        assert t.meta["cycles"] == 3

    def test_parallel_threads_interleave(self):
        m = Machine(2, order="fixed")
        t = m.run([emitter(0, 2), emitter(10, 2)])
        assert list(t) == [(0, LOAD, 0), (1, LOAD, 10),
                            (0, LOAD, 1), (1, LOAD, 11)]
        # two 2-event threads run in 2 cycles on 2 processors
        assert t.meta["cycles"] == 2

    def test_rotate_order_is_fair(self):
        m = Machine(2, order="rotate")
        t = m.run([emitter(0, 2), emitter(10, 2)])
        procs = [ev[0] for ev in t]
        assert procs == [0, 1, 1, 0]

    def test_random_order_deterministic_by_seed(self):
        a = Machine(3, order="random", seed=1).run(
            [emitter(0, 4), emitter(10, 4), emitter(20, 4)])
        b = Machine(3, order="random", seed=1).run(
            [emitter(0, 4), emitter(10, 4), emitter(20, 4)])
        assert list(a) == list(b)

    def test_fewer_threads_than_procs(self):
        m = Machine(4)
        t = m.run([emitter(0, 2)])
        assert len(t) == 2
        assert t.num_procs == 4

    def test_too_many_threads_rejected(self):
        with pytest.raises(SimulationError):
            Machine(1).run([emitter(0, 1), emitter(1, 1)])

    def test_unequal_lengths(self):
        m = Machine(2, order="fixed")
        t = m.run([emitter(0, 1), emitter(10, 3)])
        assert len(t) == 4


class TestBlocking:
    def test_block_until_waits(self):
        state = {"go": False}

        def waiter():
            yield ops.block_until(lambda: state["go"])
            yield ops.load(1)

        def setter():
            yield ops.load(0)
            state["go"] = True
            yield ops.load(2)

        t = Machine(2, order="fixed").run([waiter(), setter()])
        addrs = [a for _, _, a in t]
        assert addrs.index(1) > addrs.index(0)

    def test_true_predicate_costs_nothing(self):
        def t0():
            yield ops.block_until(lambda: True)
            yield ops.load(0)

        t = Machine(1).run([t0()])
        assert t.meta["cycles"] == 1

    def test_deadlock_detected(self):
        def stuck():
            yield ops.block_until(lambda: False)

        with pytest.raises(DeadlockError):
            Machine(1).run([stuck()])

    def test_mutual_wait_deadlock(self):
        a_done = {"v": False}
        b_done = {"v": False}

        def a():
            yield ops.block_until(lambda: b_done["v"])
            a_done["v"] = True
            yield ops.load(0)

        def b():
            yield ops.block_until(lambda: a_done["v"])
            b_done["v"] = True
            yield ops.load(1)

        with pytest.raises(DeadlockError):
            Machine(2).run([a(), b()])

    def test_unblock_then_reblock_is_not_deadlock(self):
        """Regression: a thread may satisfy another's predicate with
        non-emitting code and immediately re-block; that cycle must not be
        reported as a deadlock."""
        stage = {"n": 0}

        def a():
            yield ops.load(0)
            stage["n"] = 1          # runs on the resume after load(0)
            yield ops.block_until(lambda: stage["n"] == 2)
            yield ops.load(1)

        def b():
            yield ops.block_until(lambda: stage["n"] == 1)
            stage["n"] = 2
            yield ops.load(2)

        t = Machine(2, order="fixed").run([a(), b()])
        assert len(t) == 3


class TestValidation:
    def test_malformed_op_rejected(self):
        def bad():
            yield ("bogus", 1)

        with pytest.raises(SimulationError):
            Machine(1).run([bad()])

    def test_bad_mem_opcode_rejected(self):
        def bad():
            yield (ops.MEM, 9, 0)

        with pytest.raises(SimulationError):
            Machine(1).run([bad()])

    def test_bad_sync_opcode_rejected(self):
        def bad():
            yield (ops.SYNC, 0, 0)

        with pytest.raises(SimulationError):
            Machine(1).run([bad()])

    def test_max_cycles_guard(self):
        def forever():
            while True:
                yield ops.load(0)

        with pytest.raises(SimulationError):
            Machine(1).run([forever()], max_cycles=100)

    def test_bad_order_policy(self):
        with pytest.raises(SimulationError):
            Machine(1, order="zigzag")

    def test_nonpositive_procs(self):
        with pytest.raises(SimulationError):
            Machine(0)


class TestRunThreads:
    def test_factory_wrapper(self):
        def factory(tid):
            def gen():
                yield ops.store(tid)
            return gen()

        t = run_threads(3, factory, name="f")
        assert sorted(a for _, _, a in t) == [0, 1, 2]
        assert all(op == STORE for _, op, _ in t)
        assert t.name == "f"

    def test_meta_merged(self):
        def factory(tid):
            def gen():
                yield ops.load(0)
            return gen()

        t = run_threads(1, factory, meta={"x": 1})
        assert t.meta["x"] == 1
        assert "cycles" in t.meta
