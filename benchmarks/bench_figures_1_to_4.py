"""Figures 1-4: the paper's hand-worked example sequences, reproduced

exactly.  These are correctness anchors: every cell of the paper's example
tables must match.  The benchmark times the three classifiers on the
concatenated example stream (a microbenchmark of per-event cost)."""

from repro.classify import (
    DuboisClassifier,
    EggersClassifier,
    TorrellasClassifier,
    classify,
    compare_classifications,
)
from repro.mem import BlockMap
from repro.trace import Trace, TraceBuilder


def fig1():
    return (TraceBuilder(2)
            .store(0, 0).load(1, 0).store(0, 1).load(1, 1).build("fig1"))


def fig2_pair():
    eager = (TraceBuilder(2)
             .store(0, 0).store(0, 1).load(1, 0).load(1, 1).build("fig2a"))
    delayed = (TraceBuilder(2)
               .store(0, 0).load(1, 0).store(0, 1).load(1, 1).build("fig2b"))
    return eager, delayed


def fig3():
    return (TraceBuilder(2)
            .store(0, 1).load(1, 0).load(0, 1).load(0, 0)
            .store(1, 0).load(0, 1).load(0, 0).build("fig3"))


def fig4():
    return (TraceBuilder(2)
            .load(0, 1).load(1, 0).store(1, 1).load(0, 0)
            .store(1, 0).load(0, 1).load(0, 0).build("fig4"))


def test_fig1_block_size_effect(benchmark):
    trace = fig1()
    b4 = classify(trace, 4)
    b8 = classify(trace, 8)
    # Paper Figure 1 columns, exactly.
    assert (b4.pc, b4.cts, b4.pts, b4.pfs) == (2, 2, 0, 0)
    assert (b8.pc, b8.cts, b8.pts, b8.pfs) == (1, 1, 1, 0)
    print("\nFig 1  B=4 words: PC,CTS,PC,CTS   B=8: PC,CTS,-,PTS  [OK]")
    benchmark.pedantic(lambda: classify(trace, 8), rounds=50, iterations=10)


def test_fig2_interleaving_effect(benchmark):
    eager, delayed = fig2_pair()
    assert classify(eager, 8).essential == 2
    assert classify(delayed, 8).essential == 3
    print("\nFig 2  eager essential=2, delayed essential=3  [OK]")
    benchmark.pedantic(lambda: classify(delayed, 8), rounds=50, iterations=10)


def test_fig3_cfs_and_pts(benchmark):
    c = compare_classifications(fig3(), 8)
    assert (c.ours.pc, c.ours.cfs, c.ours.pts) == (1, 1, 1)
    assert c.eggers.as_dict() == {"CM": 2, "TSM": 0, "FSM": 1, "data_refs": 7}
    assert c.torrellas.as_dict() == {"CM": 2, "TSM": 0, "FSM": 1,
                                     "data_refs": 7}
    print("\nFig 3  ours: PC,CFS,PTS | Eggers: CM,CM,FSM | "
          "Torrellas: CM,CM,FSM  [OK]")
    benchmark.pedantic(lambda: compare_classifications(fig3(), 8),
                       rounds=20, iterations=5)


def test_fig4_scheme_differences(benchmark):
    c = compare_classifications(fig4(), 8)
    assert (c.ours.pc, c.ours.pts, c.ours.pfs) == (2, 1, 1)
    assert c.eggers.as_dict() == {"CM": 2, "TSM": 0, "FSM": 2, "data_refs": 7}
    assert c.torrellas.as_dict() == {"CM": 3, "TSM": 1, "FSM": 0,
                                     "data_refs": 7}
    print("\nFig 4  ours: PC,PC,PFS,PTS | Eggers: 2CM+2FSM | "
          "Torrellas: 3CM+1TSM  [OK]")
    benchmark.pedantic(lambda: compare_classifications(fig4(), 8),
                       rounds=20, iterations=5)


def test_classifier_microbenchmark(benchmark):
    """Per-event throughput of the Appendix A classifier on a long stream
    built from the example patterns."""
    base = list(fig1()) + list(fig3()) + list(fig4())
    events = []
    for rep in range(2000):
        offset = (rep % 50) * 16
        events.extend((p, op, a + offset) for p, op, a in base)
    trace = Trace(events, 2, validate=False)

    result = benchmark(
        lambda: DuboisClassifier.classify_trace(trace, BlockMap(8)))
    assert result.total > 0
    benchmark.extra_info["events"] = len(trace)
