"""Unit tests for interleaving utilities."""

import pytest

from repro.errors import TraceError
from repro.trace import TraceBuilder
from repro.trace.events import LOAD, STORE
from repro.trace.interleave import (
    random_interleave,
    reinterleave,
    reinterleave_sync_safe,
    round_robin,
)


def two_streams():
    return {0: [(0, LOAD, i) for i in range(4)],
            1: [(1, STORE, 10 + i) for i in range(4)]}


def program_order_preserved(trace):
    streams = {}
    for ev in trace:
        streams.setdefault(ev[0], []).append(ev)
    for p, evs in streams.items():
        addrs = [a for _, _, a in evs]
        assert addrs == sorted(addrs), f"P{p} order broken"


class TestRoundRobin:
    def test_alternates(self):
        t = round_robin(two_streams())
        assert [ev[0] for ev in t] == [0, 1, 0, 1, 0, 1, 0, 1]

    def test_quantum(self):
        t = round_robin(two_streams(), quantum=2)
        assert [ev[0] for ev in t] == [0, 0, 1, 1, 0, 0, 1, 1]

    def test_uneven_streams(self):
        streams = {0: [(0, LOAD, 0)], 1: [(1, LOAD, 1), (1, LOAD, 2)]}
        t = round_robin(streams)
        assert len(t) == 3
        program_order_preserved(t)

    def test_bad_quantum(self):
        with pytest.raises(TraceError):
            round_robin(two_streams(), quantum=0)

    def test_empty_rejected(self):
        with pytest.raises(TraceError):
            round_robin({})


class TestRandomInterleave:
    def test_deterministic_given_seed(self):
        a = random_interleave(two_streams(), seed=5)
        b = random_interleave(two_streams(), seed=5)
        assert list(a) == list(b)

    def test_different_seeds_differ(self):
        a = random_interleave(two_streams(), seed=1)
        b = random_interleave(two_streams(), seed=2)
        assert list(a) != list(b)  # 8 events, astronomically unlikely equal

    def test_program_order_preserved(self):
        t = random_interleave(two_streams(), seed=3)
        program_order_preserved(t)
        assert len(t) == 8


class TestReinterleave:
    def test_preserves_multiset_and_order(self):
        base = (TraceBuilder(2)
                .load(0, 0).load(0, 1).store(1, 5).load(1, 6).build("b"))
        out = reinterleave(base, seed=11)
        assert sorted(out) == sorted(base)
        assert out.per_processor() == base.per_processor()


class TestSyncSafeReinterleave:
    def test_sync_events_stay_put_relative(self):
        base = (TraceBuilder(2)
                .load(0, 0).store(1, 9).acquire(0, 100)
                .load(0, 1).load(1, 8).release(0, 100)
                .build("s"))
        out = reinterleave_sync_safe(base, seed=4)
        base_sync = [ev for ev in base if ev[1] >= 2]
        out_sync = [ev for ev in out if ev[1] >= 2]
        assert base_sync == out_sync
        assert out.per_processor() == base.per_processor()
        assert sorted(out) == sorted(base)

    def test_data_never_crosses_sync_boundary(self):
        base = (TraceBuilder(1)
                .load(0, 0).release(0, 100).load(0, 1).build())
        out = reinterleave_sync_safe(base, seed=1)
        # with one processor nothing can move at all
        assert list(out) == list(base)
