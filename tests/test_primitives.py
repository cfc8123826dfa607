"""Unit tests for the ANL-style synchronization primitives."""

import pytest

from repro.errors import SimulationError
from repro.execution import ops
from repro.execution.primitives import Barrier, Flag, Lock, make_flags
from repro.execution.scheduler import Machine
from repro.mem.allocator import Allocator
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.trace.validate import check_races


class TestLock:
    def test_acquire_release_footprint(self):
        alloc = Allocator()
        lock = Lock("l", alloc)

        def t():
            yield from lock.acquire(0)
            yield from lock.release(0)

        trace = Machine(1).run([t()])
        ops_seq = [(op, a) for _, op, a in trace]
        assert ops_seq == [(ACQUIRE, lock.addr), (LOAD, lock.addr),
                           (STORE, lock.addr), (STORE, lock.addr),
                           (RELEASE, lock.addr)]

    def test_mutual_exclusion(self):
        alloc = Allocator()
        lock = Lock("l", alloc)
        shared = alloc.alloc_words("data", 1)
        inside = []

        def t(tid):
            yield from lock.acquire(tid)
            inside.append(("in", tid))
            yield from ops.read_modify_write(shared.base)
            inside.append(("out", tid))
            yield from lock.release(tid)

        Machine(2).run([t(0), t(1)])
        # critical sections never interleave
        for i in range(0, len(inside), 2):
            assert inside[i][0] == "in" and inside[i + 1][0] == "out"
            assert inside[i][1] == inside[i + 1][1]

    def test_lock_protected_data_is_race_free(self):
        alloc = Allocator()
        lock = Lock("l", alloc)
        shared = alloc.alloc_words("data", 1)

        def t(tid):
            yield from lock.acquire(tid)
            yield from ops.read_modify_write(shared.base)
            yield from lock.release(tid)

        trace = Machine(4).run([t(i) for i in range(4)])
        assert check_races(trace).is_race_free

    def test_wrong_holder_release_rejected(self):
        alloc = Allocator()
        lock = Lock("l", alloc)

        def bad():
            yield from lock.release(0)

        with pytest.raises(SimulationError):
            Machine(1).run([bad()])

    def test_holder_tracking(self):
        alloc = Allocator()
        lock = Lock("l", alloc)
        seen = []

        def t():
            yield from lock.acquire(7)
            seen.append(lock.holder)
            yield from lock.release(7)

        Machine(8).run([t()])
        assert seen == [7]
        assert lock.holder is None


class TestBarrier:
    def test_all_arrive_before_any_leaves(self):
        alloc = Allocator()
        barrier = Barrier("b", alloc, 3)
        log = []

        def t(tid):
            log.append(("before", tid))
            yield from barrier.wait(tid)
            log.append(("after", tid))
            yield ops.load(100 + tid)

        Machine(3).run([t(i) for i in range(3)])
        first_after = next(i for i, e in enumerate(log) if e[0] == "after")
        assert all(e[0] == "before" for e in log[:3])
        assert first_after >= 3

    def test_reusable_across_episodes(self):
        alloc = Allocator()
        barrier = Barrier("b", alloc, 2)

        def t(tid):
            for _ in range(3):
                yield ops.load(100 + tid)   # clear of the barrier's words
                yield from barrier.wait(tid)

        trace = Machine(2).run([t(0), t(1)])
        assert barrier.episodes == 3
        assert check_races(trace).is_race_free

    def test_barrier_orders_cross_processor_data(self):
        alloc = Allocator()
        barrier = Barrier("b", alloc, 2)
        data = alloc.alloc_words("d", 2)

        def producer():
            yield ops.store(data.base)
            yield from barrier.wait(0)

        def consumer():
            yield from barrier.wait(1)
            yield ops.load(data.base)

        trace = Machine(2).run([producer(), consumer()])
        assert check_races(trace).is_race_free

    def test_counter_flag_adjacent_by_default(self):
        alloc = Allocator()
        barrier = Barrier("b", alloc, 2)
        assert barrier.flag_addr == barrier.counter_addr + 1

    def test_padded_barrier_separates_words(self):
        from repro.mem import BlockMap
        alloc = Allocator()
        alloc.alloc_words("pad", 1)
        barrier = Barrier("b", alloc, 2, padded=True, pad_bytes=64)
        assert barrier.region.nbytes == 64

    def test_zero_threads_rejected(self):
        with pytest.raises(SimulationError):
            Barrier("b", Allocator(), 0)


class TestFlag:
    def test_set_then_wait(self):
        alloc = Allocator()
        flag = Flag("f", alloc)

        def setter():
            yield ops.store(100)
            yield from flag.set(0)

        def waiter():
            yield from flag.wait(1)
            yield ops.load(100)

        trace = Machine(2).run([setter(), waiter()])
        assert check_races(trace).is_race_free
        assert flag.is_set

    def test_wait_on_already_set_flag_does_not_block(self):
        alloc = Allocator()
        flag = Flag("f", alloc)

        def t():
            yield from flag.set(0)
            yield from flag.wait(0)

        trace = Machine(1).run([t()])
        # ST, REL, ACQ, LD
        assert [op for _, op, _ in trace] == [STORE, RELEASE,
                                                     ACQUIRE, LOAD]

    def test_many_waiters(self):
        alloc = Allocator()
        flag = Flag("f", alloc)

        def setter():
            yield ops.store(50)
            yield from flag.set(0)

        def waiter(tid):
            yield from flag.wait(tid)
            yield ops.load(50)

        trace = Machine(4).run([setter()] + [waiter(i) for i in (1, 2, 3)])
        assert check_races(trace).is_race_free


class TestMakeFlags:
    def test_adjacent_addresses(self):
        alloc = Allocator()
        flags = make_flags("f", alloc, 4)
        assert [f.addr for f in flags] == [0, 1, 2, 3]

    def test_names(self):
        flags = make_flags("col", Allocator(), 2)
        assert flags[1].name == "col[1]"
