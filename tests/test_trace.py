"""Unit tests for the Trace container (repro.trace.trace)."""

import pytest

from repro.errors import TraceError
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.trace.trace import Trace, TraceCounts, merge_program_order


def simple_events():
    return [(0, LOAD, 0), (1, STORE, 4), (0, ACQUIRE, 8),
            (0, LOAD, 4), (0, RELEASE, 8), (1, LOAD, 0)]


class TestConstruction:
    def test_infers_num_procs(self):
        t = Trace(simple_events())
        assert t.num_procs == 2

    def test_explicit_num_procs(self):
        t = Trace(simple_events(), num_procs=8)
        assert t.num_procs == 8

    def test_empty_trace(self):
        t = Trace([])
        assert len(t) == 0
        assert t.num_procs == 1

    def test_validation_rejects_out_of_range_proc(self):
        with pytest.raises(TraceError):
            Trace([(5, LOAD, 0)], num_procs=2)

    def test_validation_can_be_skipped(self):
        t = Trace([(5, LOAD, 0)], num_procs=2, validate=False)
        assert len(t) == 1

    def test_nonpositive_num_procs_rejected(self):
        with pytest.raises(TraceError):
            Trace([], num_procs=0)

    def test_address_beyond_int64_rejected_at_construction(self):
        with pytest.raises(TraceError,
                           match=r"field 9223372036854775808 in event "
                                 r"\(0, 0, 9223372036854775808\) is not "
                                 r"an int64 integer"):
            Trace([(0, LOAD, 2**63)])

    def test_bad_event_message_names_the_event(self):
        with pytest.raises(TraceError,
                           match=r"bad word address 1\.5 in event "
                                 r"\(0, 0, 1\.5\)"):
            Trace([(0, LOAD, 1.5)])

    def test_meta_is_copied(self):
        meta = {"a": 1}
        t = Trace([], meta=meta)
        meta["a"] = 2
        assert t.meta["a"] == 1


class TestSequenceProtocol:
    def test_len_iter_getitem(self):
        t = Trace(simple_events())
        assert len(t) == 6
        assert list(t)[0] == (0, LOAD, 0)
        assert t[1] == (1, STORE, 4)

    def test_slice_returns_trace(self):
        t = Trace(simple_events(), name="x")
        head = t[:3]
        assert isinstance(head, Trace)
        assert len(head) == 3
        assert head.num_procs == t.num_procs

    def test_equality(self):
        assert Trace(simple_events()) == Trace(simple_events())
        assert Trace(simple_events()) != Trace(simple_events()[:-1],
                                               num_procs=2)


class TestViews:
    def test_per_processor_preserves_program_order(self):
        t = Trace(simple_events())
        streams = t.per_processor()
        assert streams[0] == [(0, LOAD, 0), (0, ACQUIRE, 8),
                              (0, LOAD, 4), (0, RELEASE, 8)]
        assert streams[1] == [(1, STORE, 4), (1, LOAD, 0)]

    def test_touched_words(self):
        t = Trace(simple_events())
        assert t.touched_words() == {0, 4}

    def test_touched_blocks(self):
        from repro.mem import BlockMap
        t = Trace(simple_events())
        assert t.touched_blocks(BlockMap(16)) == {0, 1}

    def test_counts(self):
        c = Trace(simple_events()).counts()
        assert c == TraceCounts(loads=3, stores=1, acquires=1, releases=1)
        assert c.data == 4
        assert c.total == 6


class TestCombinators:
    def test_concat(self):
        t = Trace(simple_events())
        tt = t.concat(t)
        assert len(tt) == 12

    def test_concat_mismatched_procs_rejected(self):
        t2 = Trace(simple_events())
        t8 = Trace(simple_events(), num_procs=8)
        with pytest.raises(TraceError):
            t2.concat(t8)

    def test_head(self):
        assert len(Trace(simple_events()).head(2)) == 2

    def test_sample_keeps_window_prefixes(self):
        events = [(0, LOAD, i) for i in range(100)]
        t = Trace(events)
        s = t.sample(0.2, granularity=10)
        assert len(s) == 20
        # first two of every ten
        assert list(s[:4]) == [(0, LOAD, 0), (0, LOAD, 1),
                                (0, LOAD, 10), (0, LOAD, 11)]

    def test_sample_full_fraction_is_identity(self):
        t = Trace(simple_events())
        assert t.sample(1.0) is t

    def test_sample_bad_fraction(self):
        with pytest.raises(TraceError):
            Trace(simple_events()).sample(0.0)

    def test_format_mentions_events(self):
        text = Trace(simple_events(), name="demo").format(limit=2)
        assert "demo" in text and "more" in text


class TestMergeProgramOrder:
    def test_roundtrip(self):
        t = Trace(simple_events())
        streams = t.per_processor()
        order = [ev[0] for ev in t]
        rebuilt = merge_program_order(streams, order)
        assert list(rebuilt) == list(t)

    def test_incomplete_order_rejected(self):
        t = Trace(simple_events())
        with pytest.raises(TraceError):
            merge_program_order(t.per_processor(), [0, 1])

    def test_overrun_order_rejected(self):
        t = Trace(simple_events())
        order = [ev[0] for ev in t] + [0]
        with pytest.raises(TraceError):
            merge_program_order(t.per_processor(), order)
