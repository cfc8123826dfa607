"""Performance benchmarks: events/second of the classifiers and protocol

simulators on a real benchmark trace.  These guard against performance
regressions in the hot loops (the library's usefulness depends on keeping
multi-million-event traces tractable), and pin the sweep engine's
end-to-end speedup over the pre-refactor workflow (see
``test_fig5_sweep_end_to_end_speedup``)."""

import gc
import os
import time

import pytest

from repro.analysis.engine import SharedPrecompute, SweepEngine
from repro.runtime.resources import peak_rss_bytes
from repro.classify import (
    DuboisClassifier,
    EggersClassifier,
    TorrellasClassifier,
)
from repro.mem import BlockMap
from repro.mem.addresses import PAPER_BLOCK_SIZES
from repro.protocols import run_protocol
from repro.trace.cache import WorkloadTraceCache
from repro.workloads import make_workload


@pytest.mark.parametrize("classifier", [DuboisClassifier, EggersClassifier,
                                        TorrellasClassifier])
def test_classifier_throughput(benchmark, bench_json, mp3d200, classifier):
    bm = BlockMap(64)
    result = benchmark.pedantic(
        lambda: classifier.classify_trace(mp3d200, bm),
        rounds=3, iterations=1)
    assert result.total > 0
    eps = int(len(mp3d200) / benchmark.stats.stats.mean)
    rss_kb = peak_rss_bytes("self") // 1024
    benchmark.extra_info["events"] = len(mp3d200)
    benchmark.extra_info["events_per_sec"] = eps
    benchmark.extra_info["max_rss_kb"] = rss_kb
    bench_json(f"classify/{classifier.__name__}/MP3D200/B64",
               mode="serial", events=len(mp3d200), events_per_sec=eps,
               max_rss_kb=rss_kb)


@pytest.mark.parametrize("block_bytes", [64, 1024])
@pytest.mark.parametrize("protocol", ["MIN", "OTF", "RD", "SD", "SRD",
                                      "WBWI", "MAX"])
def test_protocol_throughput(benchmark, bench_json, mp3d200, protocol,
                             block_bytes):
    result = benchmark.pedantic(
        lambda: run_protocol(protocol, mp3d200, block_bytes),
        rounds=3, iterations=1)
    assert result.misses > 0
    eps = int(len(mp3d200) / benchmark.stats.stats.mean)
    rss_kb = peak_rss_bytes("self") // 1024
    benchmark.extra_info["events"] = len(mp3d200)
    benchmark.extra_info["events_per_sec"] = eps
    benchmark.extra_info["max_rss_kb"] = rss_kb
    bench_json(f"protocol/{protocol}/MP3D200/B{block_bytes}",
               mode="serial", events=len(mp3d200), events_per_sec=eps,
               max_rss_kb=rss_kb)


@pytest.mark.parametrize("kind,which", [("classify", "dubois"),
                                        ("protocol", "OTF")])
def test_kernel_speedup(benchmark, bench_json, mp3d1000, kind, which):
    """Kernel gate: the vectorized cells must deliver >= 5x single-core.

    Both legs run the identical engine cell path
    (:class:`SharedPrecompute` at paper scale, MP3D1000/B64) and must
    produce bit-identical results; only the ``kernel`` mode differs.
    Each round builds a fresh precompute and first runs the same cell at
    B16 — that is a sweep's steady state (one shared precompute serves
    every block size), so the timed B64 cell sees warm word-level tables
    but a cold block view, symmetrically for both modes.
    """
    pytest.importorskip("numpy")

    def cell_round(kernel):
        pre = SharedPrecompute(mp3d1000, kernel=kernel)
        run = (lambda bb: pre.run_classifier(which, bb)) if kind == "classify" \
            else (lambda bb: pre.run_protocol(which, bb))
        run(16)
        t0 = time.perf_counter()
        result = run(64)
        return result, time.perf_counter() - t0

    gc.collect()  # shed prior benchmarks' garbage outside the timed region
    t_vec = t_int = 1e9
    for _ in range(5):
        res_vec, dt = cell_round("vectorized")
        t_vec = min(t_vec, dt)
    for _ in range(3):
        res_int, dt = cell_round("interpreted")
        t_int = min(t_int, dt)
    assert res_vec == res_int  # same counters, not just faster

    benchmark.pedantic(lambda: cell_round("vectorized")[0],
                       rounds=1, iterations=1)
    events = len(mp3d1000)
    speedup = t_int / t_vec
    eps = int(events / t_vec)
    benchmark.extra_info["events"] = events
    benchmark.extra_info["events_per_sec"] = eps
    benchmark.extra_info["speedup"] = round(speedup, 2)
    bench_json(f"kernel/{kind}-{which}/MP3D1000/B64", mode="vectorized",
               events=events, events_per_sec=eps,
               interpreted_events_per_sec=int(events / t_int),
               vectorized_sec=round(t_vec, 4),
               interpreted_sec=round(t_int, 4),
               speedup=round(speedup, 2))
    assert speedup >= 5.0, (
        f"{kind}-{which} kernel speedup {speedup:.2f}x < 5x")


def test_workload_generation_throughput(benchmark, bench_json):
    trace = benchmark.pedantic(
        lambda: make_workload("MP3D200").generate(), rounds=1, iterations=1)
    assert len(trace) > 10_000
    benchmark.extra_info["events"] = len(trace)
    benchmark.extra_info["max_rss_kb"] = peak_rss_bytes("self") // 1024
    bench_json("generate/MP3D200", mode="serial", events=len(trace),
               events_per_sec=int(len(trace) / benchmark.stats.stats.mean))


def test_telemetry_overhead_under_3_percent(benchmark, bench_json, mp3d200,
                                            tmp_path_factory):
    """Telemetry gate: recording a run costs < 3 % end to end.

    Both legs run the same serial Fig.5-style classification sweep; the
    recorded leg adds a full :class:`~repro.obs.RunTelemetry` — per-cell
    spans, metrics, the manifest fold, the events.jsonl writes, and
    (since the distributed-tracing change) trace-id/span-id threading on
    every record, which this gate re-prices.  The budget holds because
    instrumentation is per *cell*, not per event — a sweep emits tens of
    records while classifying millions of references — and because
    telemetry-off call sites hit the no-op
    :data:`~repro.obs.NULL_RECORDER`.

    The recorded leg's manifest is also appended to the repo-root
    ``PERF_HISTORY.jsonl`` (the ``repro history`` store), so every
    benchmark run extends the cross-run perf trail and cells regressing
    against their trailing median get a logged warning.

    Methodology: the legs run as *interleaved off/on pairs* and the
    overhead is the **minimum pairwise on/off ratio**.  A real
    instrumentation cost inflates every pair, so it lower-bounds the
    minimum; transient machine load (CI boxes, the 1-core container)
    only spikes individual samples and cancels out — a plain
    min-per-leg comparison flaps by 10 %+ on a loaded host.
    """
    sizes = PAPER_BLOCK_SIZES
    tel = str(tmp_path_factory.mktemp("telemetry"))

    def sweep(telemetry_dir=None):
        return SweepEngine(mp3d200,
                           telemetry_dir=telemetry_dir).classify_sweep(sizes)

    sweep()  # warm page cache / allocator outside the timed region
    t_off = t_on = 1e9
    ratios = []
    for _ in range(6):
        t0 = time.perf_counter()
        sweep()
        off = time.perf_counter() - t0
        t0 = time.perf_counter()
        sweep(tel)
        on = time.perf_counter() - t0
        ratios.append(on / off)
        t_off, t_on = min(t_off, off), min(t_on, on)

    result = benchmark.pedantic(lambda: sweep(tel), rounds=1, iterations=1)
    assert result.breakdowns[0].total > 0
    overhead = min(ratios) - 1.0
    median = sorted(ratios)[len(ratios) // 2] - 1.0
    benchmark.extra_info["telemetry_off_sec"] = round(t_off, 4)
    benchmark.extra_info["telemetry_on_sec"] = round(t_on, 4)
    benchmark.extra_info["overhead_pct"] = round(overhead * 100, 2)
    bench_json("telemetry/overhead/MP3D200/fig5-sweep", mode="serial",
               events=len(mp3d200) * len(sizes),
               telemetry_off_sec=round(t_off, 4),
               telemetry_on_sec=round(t_on, 4),
               overhead_pct=round(overhead * 100, 2),
               median_overhead_pct=round(median * 100, 2),
               span_ids=True)

    # Extend the cross-run perf trail with the recorded leg's newest
    # run and warn (never fail — the overhead assert is this test's
    # gate) about cells regressing against their trailing median.
    import logging

    from repro.obs import check_regressions, find_runs, load_history
    from repro.obs.history import record_run

    history_path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "PERF_HISTORY.jsonl")
    newest = sorted(find_runs(tel))[-1]
    record_run(newest, history_path, label="bench-telemetry-overhead")
    trend = check_regressions(load_history(history_path))
    for cell in trend["regressions"]:
        logging.getLogger("repro.benchmarks").warning(
            "perf history regression: %s %+.1f%% vs trailing median",
            "/".join(str(p) for p in cell["cell"]), cell["delta_pct"])

    assert overhead < 0.03, (
        f"telemetry overhead {overhead * 100:.2f}% >= 3%")


def test_fig5_sweep_end_to_end_speedup(benchmark, tmp_path_factory):
    """Acceptance benchmark: the sweep engine must deliver >= 2x end-to-end
    on a Fig.5-style multi-block-size classification sweep.

    * **before** — the pre-refactor workflow: generate the trace (every run
      regenerated it; there was no cache), then stream the data rows
      through the Appendix A transliteration
      (:class:`DuboisClassifier`) once per block size, recomputing
      the block address per access.
    * **after** — the engine workflow: load the trace from the warm on-disk
      npz cache (generated once, adopted as columns without decoding) and
      run :meth:`SweepEngine.classify_sweep` over the same block sizes with
      one :class:`~repro.analysis.engine.SharedPrecompute` (decode-once
      prefilter, per-size block ids, no-op read elision).

    Both legs produce identical breakdowns; methodology and reference
    numbers live in ``EXPERIMENTS.md``.
    """
    name = "MP3D200"
    cache = WorkloadTraceCache(str(tmp_path_factory.mktemp("traces")))
    cache.get(name)  # warm the on-disk cache outside the timed region

    def before():
        full = make_workload(name).generate()
        return tuple(DuboisClassifier.classify_trace(full, BlockMap(bb))
                     for bb in PAPER_BLOCK_SIZES)

    def after():
        return SweepEngine(cache.get(name)).classify_sweep(PAPER_BLOCK_SIZES)

    t_before = 1e9
    for _ in range(2):
        t0 = time.perf_counter()
        expected = before()
        t_before = min(t_before, time.perf_counter() - t0)

    sweep = benchmark.pedantic(after, rounds=3, iterations=1)
    t_after = benchmark.stats.stats.min

    assert sweep.breakdowns == expected  # same results, not just faster
    events = sweep.breakdowns[0].data_refs * len(PAPER_BLOCK_SIZES)
    ratio = t_before / t_after
    benchmark.extra_info["before_sec"] = round(t_before, 3)
    benchmark.extra_info["after_sec"] = round(t_after, 3)
    benchmark.extra_info["speedup"] = round(ratio, 2)
    benchmark.extra_info["classified_refs"] = events
    benchmark.extra_info["refs_per_sec_after"] = int(events / t_after)
    assert ratio >= 2.0, f"end-to-end sweep speedup {ratio:.2f}x < 2x"
