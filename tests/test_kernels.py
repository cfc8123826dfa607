"""Differential and integration tests for the vectorized kernel layer.

The streaming classifiers/protocols are the oracle (for Dubois, the
Appendix A transliteration): every test here checks that `repro.kernels`
reproduces their counters bit-for-bit — over the real workload
generators, over hypothesis-random traces (sync events included), under
arbitrary shard partitions through the engine, and through the CLI.  Integration tests cover the resolution contract, the
checkpoint kernel binding, heartbeat granularity and the stall watchdog.
"""

import os
import time

import pytest

np = pytest.importorskip("numpy")

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.engine import SharedPrecompute, SweepEngine
from repro.classify.dubois import DuboisClassifier
from repro.classify.eggers import EggersClassifier
from repro.classify.torrellas import TorrellasClassifier
from repro.errors import ConfigError, StaleJournalError
from repro.kernels import (
    CLASSIFIER_KERNELS,
    PROTOCOL_KERNELS,
    KernelContext,
    effective_kernel_mode,
    has_kernel,
    resolve_kernel,
    validate_kernel_mode,
)
from repro.kernels.classifiers import dubois_kernel
from repro.mem.addresses import BlockMap
from repro.protocols.runner import make_protocol
from repro.runtime import signals
from repro.runtime.checkpoint import CheckpointJournal
from repro.runtime.retry import RetryPolicy
from repro.runtime.supervisor import Supervisor
from repro.trace.events import ACQUIRE, LOAD, RELEASE, STORE
from repro.trace.trace import Trace
from repro.workloads.registry import SMALL_SUITE, make_workload

#: One representative of each workload generator family.
FAMILIES = ("MP3D200", "WATER16", "JACOBI64", "FFT256", "LU32",
            "MATMUL24", "SOR64")
BLOCK_SIZES = (16, 64, 256)

_trace_cache = {}


def family_trace(name):
    if name not in _trace_cache:
        _trace_cache[name] = make_workload(name).generate()
    return _trace_cache[name]


def kernel_context(trace):
    return KernelContext.from_trace(trace)


# ----------------------------------------------------------------------
# differential suite: kernels == streaming oracles, bit for bit
# ----------------------------------------------------------------------
ORACLES = {"dubois": DuboisClassifier, "eggers": EggersClassifier,
           "torrellas": TorrellasClassifier}


class TestDifferentialWorkloads:
    @pytest.mark.parametrize("workload", FAMILIES)
    def test_classifier_kernels_match_oracles(self, workload):
        trace = family_trace(workload)
        ctx = kernel_context(trace)
        for bb in BLOCK_SIZES:
            bm = BlockMap(bb)
            for which, kernel in CLASSIFIER_KERNELS.items():
                expected = ORACLES[which].classify_trace(trace, bm)
                assert kernel(ctx, bm) == expected, (workload, bb, which)

    @pytest.mark.parametrize("workload", FAMILIES)
    def test_protocol_kernels_match_oracles(self, workload):
        trace = family_trace(workload)
        ctx = kernel_context(trace)
        for bb in BLOCK_SIZES:
            bm = BlockMap(bb)
            for name, kernel in PROTOCOL_KERNELS.items():
                expected = make_protocol(name, trace.num_procs,
                                         bm).run(trace)
                got = kernel(ctx, bm, trace_name=trace.name)
                assert got == expected, (workload, bb, name)


# ----------------------------------------------------------------------
# hypothesis: random traces (sync included), arbitrary shard partitions
# ----------------------------------------------------------------------
MAX_PROCS = 4
MAX_WORDS = 16


@st.composite
def traces(draw, max_events=60):
    """Random interleaved traces *including* ACQUIRE/RELEASE rows."""
    n = draw(st.integers(1, max_events))
    nproc = draw(st.integers(1, MAX_PROCS))
    events = [
        (draw(st.integers(0, nproc - 1)),
         draw(st.sampled_from((LOAD, LOAD, STORE, STORE, ACQUIRE,
                               RELEASE))),
         draw(st.integers(0, MAX_WORDS - 1)))
        for _ in range(n)
    ]
    return Trace(events, nproc, validate=False)


GRID = [("classify", 8, "dubois"), ("classify", 16, "eggers"),
        ("classify", 8, "torrellas"), ("compare", 16, None),
        ("protocol", 8, "OTF")]


@given(traces(), st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_engine_grids_match_under_arbitrary_shardings(trace, shards):
    """vectorized+sharded == interpreted+serial through the engine.

    Exercises the full integration surface per example: kernel dispatch
    in ``run_classifier``/``run_protocol``/``run_comparison``, the
    per-shard ephemeral contexts, and ``merge_shard_results`` /
    breakdown addition over an arbitrary shard count.
    """
    vec = SweepEngine(trace, jobs=1, shards=shards,
                      kernel="vectorized").run_grid(GRID)
    ref = SweepEngine(trace, jobs=1, shards=1,
                      kernel="interpreted").run_grid(GRID)
    assert vec == ref


@given(traces(max_events=40))
@settings(max_examples=30, deadline=None)
def test_kernels_match_oracles_on_random_traces(trace):
    ctx = kernel_context(trace)
    for bb in (4, 8, 32):
        bm = BlockMap(bb)
        for which, kernel in CLASSIFIER_KERNELS.items():
            assert kernel(ctx, bm) == ORACLES[which].classify_trace(
                trace, bm), (bb, which)
        for name, kernel in PROTOCOL_KERNELS.items():
            got = kernel(ctx, bm,
                         trace_name=trace.name or "<anonymous>")
            assert got == make_protocol(
                name, trace.num_procs, bm).run(trace), (bb, name)


@given(traces(), st.sampled_from((4, 8, 16, 32, 64)))
@settings(max_examples=200, deadline=None)
def test_dubois_kernel_matches_transliteration_on_random_traces(trace, bb):
    bm = BlockMap(bb)
    assert (dubois_kernel(kernel_context(trace), bm)
            == DuboisClassifier.classify_trace(trace, bm))


@pytest.mark.parametrize("block_bytes", (4, 64, 1024))
@pytest.mark.parametrize("name", SMALL_SUITE)
def test_dubois_kernel_matches_transliteration_on_workloads(name,
                                                            block_bytes):
    """Workload prefixes, through the kernel and both engine paths.

    The interpreted engine path feeds the transliteration only the rows
    the no-op read elision keeps, so it checks the elision too.
    """
    full = family_trace(name)
    trace = Trace(full[:6000], full.num_procs, name=name)
    bm = BlockMap(block_bytes)
    expected = DuboisClassifier.classify_trace(trace, bm)
    assert dubois_kernel(kernel_context(trace), bm) == expected
    for mode in ("interpreted", "vectorized"):
        pre = SharedPrecompute(trace, kernel=mode)
        assert pre.run_classifier("dubois", block_bytes) == expected, mode


# ----------------------------------------------------------------------
# resolution contract
# ----------------------------------------------------------------------
class TestResolution:
    def test_modes_validate(self):
        for mode in ("auto", "vectorized", "interpreted"):
            assert validate_kernel_mode(mode) == mode
        with pytest.raises(ConfigError):
            validate_kernel_mode("simd")

    def test_kernelled_cells(self):
        assert has_kernel("classify", "dubois")
        assert has_kernel("classify-shard", "eggers")
        assert has_kernel("compare", None)
        assert has_kernel("protocol", "OTF")
        assert has_kernel("protocol-shard", "OTF")
        assert not has_kernel("protocol", "MAX")
        assert not has_kernel("finite", "1024")
        assert not has_kernel("classify", "nope")

    def test_resolve_rules(self):
        assert resolve_kernel("auto", "classify", "dubois") == "vectorized"
        assert resolve_kernel("vectorized", "protocol", "OTF") == "vectorized"
        # Fallback: no kernel for this cell under every mode.
        assert resolve_kernel("vectorized", "protocol", "MAX") == "interpreted"
        assert resolve_kernel("auto", "finite", "64") == "interpreted"
        # Forced interpreted wins everywhere.
        assert resolve_kernel("interpreted", "classify",
                              "dubois") == "interpreted"

    def test_effective_mode(self):
        assert effective_kernel_mode("interpreted") == "interpreted"
        assert effective_kernel_mode("vectorized") == "vectorized"
        assert effective_kernel_mode("auto") == "vectorized"  # numpy present


# ----------------------------------------------------------------------
# checkpoint binding: --resume never mixes kernels
# ----------------------------------------------------------------------
class TestJournalKernelBinding:
    def test_journal_rejects_other_kernel_mode(self, tmp_path):
        trace = family_trace("MATMUL24")
        cell = ("classify", 64, "dubois")
        journal = CheckpointJournal(str(tmp_path), "k", kernel="vectorized")
        journal.record(cell, dubois_kernel(kernel_context(trace),
                                           BlockMap(64)))
        journal.close()
        # Same mode: records load.
        assert CheckpointJournal(str(tmp_path), "k",
                                 kernel="vectorized").load() != {}
        # Other mode: the header digest no longer matches.
        with pytest.raises(StaleJournalError, match="kernel"):
            CheckpointJournal(str(tmp_path), "k",
                              kernel="interpreted").load()

    def test_engine_resume_refuses_kernel_switch(self, tmp_path):
        trace = family_trace("MATMUL24")
        ckpt = str(tmp_path / "ckpt")
        cells = [("classify", 64, "dubois")]
        first = SweepEngine(trace, checkpoint_dir=ckpt, kernel="auto")
        second = SweepEngine(trace, checkpoint_dir=ckpt, kernel="auto",
                             trace_key=first.trace_key)
        switched = SweepEngine(trace, checkpoint_dir=ckpt,
                               kernel="interpreted",
                               trace_key=first.trace_key)
        result = first.run_grid(cells)
        assert second.run_grid(cells) == result  # same mode resumes
        with pytest.raises(StaleJournalError):
            switched.run_grid(cells)


# ----------------------------------------------------------------------
# CLI equivalence
# ----------------------------------------------------------------------
class TestCliKernelFlag:
    def test_classify_output_identical_across_kernels(self, capsys):
        from repro.cli import main
        outs = []
        for mode in ("vectorized", "interpreted"):
            assert main(["classify", "MATMUL24", "--block", "32",
                         "--kernel", mode]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]

    def test_simulate_output_identical_across_kernels(self, capsys):
        from repro.cli import main
        outs = []
        for mode in ("vectorized", "interpreted"):
            assert main(["simulate", "MATMUL24", "--block", "32",
                         "--protocol", "OTF", "--kernel", mode]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]


# ----------------------------------------------------------------------
# heartbeat granularity & the stall watchdog
# ----------------------------------------------------------------------
class TestHeartbeat:
    def test_large_batch_ticks_at_chunk_granularity(self, monkeypatch):
        """One big batch ticks progress in <= HEARTBEAT_CHUNK slices."""
        trace = family_trace("MP3D200")
        ctx = kernel_context(trace)
        assert ctx.n > signals.HEARTBEAT_CHUNK  # the premise
        ticks = []
        orig = signals.note_progress
        monkeypatch.setattr(signals, "note_progress",
                            lambda n=1: (ticks.append(n), orig(n)))
        stats = {}
        dubois_kernel(ctx, BlockMap(64), stats=stats)
        assert sum(ticks) == ctx.n  # one tick credit per row, exactly
        assert max(ticks) <= signals.HEARTBEAT_CHUNK
        assert len(ticks) >= 2  # ticked *during* the batch, not once at end
        assert stats == {"rows": ctx.n, "batches": len(ticks)}

    def test_kernel_stats_accumulate_across_cells(self):
        trace = family_trace("MATMUL24")
        pre = SharedPrecompute(trace, kernel="vectorized")
        pre.run_cell(("classify", 64, "dubois"))
        first = dict(pre.last_kernel_stats)
        assert first["rows"] == len(pre.data.proc)
        assert first["batches"] >= 1
        pre.run_cell(("compare", 32, None))  # three kernels, one cell
        assert pre.last_kernel_stats["rows"] == 3 * first["rows"]


def _slow_vectorized_cell(task):
    """A vectorized cell slowed to several stall windows of runtime.

    Every heartbeat phase sleeps before ticking, so the kernel takes
    ~0.6 s against a 0.25 s stall timeout while its progress counter
    advances phase by phase — the watchdog must classify it as slow,
    never as hung.  A start-marker file per attempt proves no kill/retry
    happened.
    """
    from repro.kernels import classifiers as K

    marker, idx = task
    with open(f"{marker}.{os.getpid()}.{idx}", "w"):
        pass
    events = [(p, STORE if (i + p) % 3 else LOAD, (i * 7 + p) % 64)
              for i in range(500) for p in range(4)]
    trace = Trace(events, 4, validate=False)
    ctx = KernelContext.from_trace(trace)
    orig_phase = K._Heartbeat.phase

    def slow_phase(self):
        time.sleep(0.09)
        orig_phase(self)

    K._Heartbeat.phase = slow_phase
    try:
        K.dubois_kernel(ctx, BlockMap(16))
    finally:
        K._Heartbeat.phase = orig_phase
    return idx


class TestWatchdogRegression:
    def test_slow_vectorized_cell_is_not_falsely_killed(self, tmp_path):
        marker = str(tmp_path / "started")
        sup = Supervisor(_slow_vectorized_cell, jobs=2, timeout=0.25,
                         retry=RetryPolicy(max_attempts=1,
                                           base_delay=0.01,
                                           max_delay=0.02))
        assert sup.run([(marker, 0), (marker, 1)]) == [0, 1]
        starts = sorted(n.rsplit(".", 1)[1] for n in os.listdir(tmp_path))
        assert starts == ["0", "1"]  # exactly one attempt per cell
