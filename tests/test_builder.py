"""Unit tests for TraceBuilder."""

import pytest

from repro.errors import TraceError
from repro.trace import TraceBuilder
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE


class TestBuilder:
    def test_basic_sequence(self):
        t = TraceBuilder(2).store(0, 1).load(1, 1).build("t")
        assert list(t) == [(0, STORE, 1), (1, LOAD, 1)]
        assert t.name == "t"

    def test_sync_events(self):
        t = TraceBuilder(1).acquire(0, 8).release(0, 8).build()
        assert list(t) == [(0, ACQUIRE, 8), (0, RELEASE, 8)]

    def test_bulk_loads_stores(self):
        t = TraceBuilder(1).loads(0, [0, 1]).stores(0, [2, 3]).build()
        assert list(t) == [(0, LOAD, 0), (0, LOAD, 1),
                            (0, STORE, 2), (0, STORE, 3)]

    def test_critical_section(self):
        t = (TraceBuilder(1)
             .critical_section(0, 100, lambda b: b.store(0, 5))
             .build())
        assert list(t) == [(0, ACQUIRE, 100), (0, STORE, 5),
                            (0, RELEASE, 100)]

    def test_extend_raw_events(self):
        t = TraceBuilder(2).extend([(0, LOAD, 1), (1, STORE, 2)]).build()
        assert len(t) == 2

    def test_len(self):
        b = TraceBuilder(1).load(0, 0)
        assert len(b) == 1

    def test_out_of_range_proc_rejected(self):
        with pytest.raises(TraceError):
            TraceBuilder(2).load(2, 0)

    def test_zero_procs_rejected(self):
        with pytest.raises(TraceError):
            TraceBuilder(0)

    def test_builder_is_chainable(self):
        b = TraceBuilder(2)
        assert b.load(0, 0) is b
        assert b.store(1, 0) is b
        assert b.acquire(0, 4) is b
        assert b.release(0, 4) is b

    def test_build_meta(self):
        t = TraceBuilder(1).load(0, 0).build("n", meta={"k": "v"})
        assert t.meta == {"k": "v"}

    def test_build_validates(self):
        # builder validates on emit, so build always succeeds on its output
        t = TraceBuilder(3).load(2, 7).build()
        assert t.num_procs == 3
