"""Workloads, in-memory spans and one timed pass of the repo benchmark.

A *pass* is one complete execution of a workload: acquire every trace
through the trace cache, build a :class:`SweepEngine` per trace, build its
:class:`SharedPrecompute`, and run every grid.  ``run.py`` repeats passes
for the measured time and derives the metrics from their spans.

Importing this module puts the checkout's ``src`` on ``sys.path`` and
imports :mod:`repro`; ``child.py setup`` times that import before it
imports this module.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    raise SystemExit(f"no repro sources under {SRC}: run from a checkout")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import calib
from repro.analysis.engine import SweepEngine
from repro.mem.addresses import PAPER_BLOCK_SIZES, BlockMap
from repro.obs import RunTelemetry
from repro.protocols.finite import finite_spec
from repro.trace.cache import WorkloadTraceCache, workload_cache_key
from repro.workloads import registry

#: Everything the benchmark writes lives here (ignored by git).
WORK_DIR = os.path.join(ROOT, ".perfbench")

#: The warm trace cache shared by every run in a checkout.
WARM_CACHE_DIR = os.path.join(WORK_DIR, "traces")

WORKLOADS = ("fig5-classify", "fig6-protocols", "cold-parallel")

SMALL_SUITE = registry.SMALL_SUITE
LARGE_STAND_INS = registry.LARGE_SUITE

#: Figure 6's seven invalidation schedules and its two block sizes.
SCHEDULES = ("MIN", "OTF", "RD", "SD", "SRD", "WBWI", "MAX")
FIG6_BLOCKS = (64, 1024)

#: cold-parallel runs on as many workers as the reference host has cores.
COLD_JOBS = 2

#: A 256-block, 4-way set-associative cache: 64 sets, so a lone finite
#: cell on a 2-worker pool auto-shards by cache set.
FINITE_CELL = ("finite", 64, finite_spec(256, 4))

Cell = Tuple
Grid = List[Cell]


def make_workload(label: str, seed: int):
    """The registry's named configuration, generating with ``seed``."""
    workload = registry.make_workload(label)
    workload.seed = seed
    return workload


def plan(workload: str, seed: int) -> List[Tuple[object, List[Grid]]]:
    """``[(Workload, [grid, ...]), ...]`` for one benchmark workload.

    Each grid is one ``SweepEngine.run_grid`` call.
    """
    fig5 = ([("classify", b, "dubois") for b in PAPER_BLOCK_SIZES]
            + [("compare", b, None) for b in PAPER_BLOCK_SIZES])
    if workload == "fig5-classify":
        return [(make_workload(label, seed), [fig5])
                for label in SMALL_SUITE + LARGE_STAND_INS]
    if workload == "fig6-protocols":
        fig6 = [("protocol", b, p) for b in FIG6_BLOCKS for p in SCHEDULES]
        return [(make_workload(label, seed), [fig6])
                for label in SMALL_SUITE]
    if workload == "cold-parallel":
        # The finite cell is a grid of its own: a one-cell grid on a
        # two-worker pool is what makes the scheduler shard it.
        sweep = [("classify", b, "dubois") for b in PAPER_BLOCK_SIZES]
        return [(make_workload(label, seed), [sweep, [FINITE_CELL]])
                for label in SMALL_SUITE]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def cell_key(cell: Cell) -> str:
    """``kind/block/which`` — the name of a cell in pins and messages."""
    return "/".join(str(part) for part in cell[:3])


def cell_layer(cell: Sequence) -> str:
    """The per-layer metric a cell's compute time is charged to."""
    kind, block, which = cell[0], cell[1], cell[2]
    if kind.endswith("-shard"):
        kind = kind[:-len("-shard")]
    if kind == "classify":
        return "kernels.classify_s"
    if kind == "compare":
        return "kernels.compare_s"
    if kind == "finite":
        return "protocols.finite_s"
    if which == "OTF":
        return "kernels.otf_s"
    return f"protocols.{which}.b{block}_s"


def engine_jobs(workload: str) -> int:
    return COLD_JOBS if workload == "cold-parallel" else 1


class Spans:
    """In-memory span log of one pass: name, start, end, parent, run id."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.records) + len(self._stack) + 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append({"run": self.run_id, "id": span_id,
                                 "parent": parent, "name": name,
                                 "start": start, "end": end})

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name)


def write_spans(path: str, spans: Sequence[Spans]) -> None:
    """Write every pass's spans as JSON lines."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for sp in spans:
            for record in sp.records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")


class _TimedWorkload:
    """Forwards to a workload, timing ``generate`` as a benchmark span.

    The trace cache keys and generates through this object, so a cache
    miss shows as a ``workloads.generate`` span inside ``trace.cache_get``.
    """

    def __init__(self, workload, spans: Spans, counts: Dict[str, int]):
        self._workload = workload
        self._spans = spans
        self._counts = counts

    def __getattr__(self, name):
        return getattr(self._workload, name)

    def generate(self, **kwargs):
        with self._spans.span("workloads.generate"):
            trace = self._workload.generate(**kwargs)
        self._counts["generated_events"] += len(trace)
        return trace


def _spanned_cells(run_cell, spans: Spans):
    """Wrap ``SharedPrecompute.run_cell`` so each cell call is a span."""
    def run(cell):
        with spans.span(cell_layer(cell)):
            return run_cell(cell)
    return run


class PassRecord:
    """What one pass produced: spans, results and counts."""

    def __init__(self, spans: Spans, traced: bool):
        self.spans = spans
        self.traced = traced
        #: ``(trace name, cell) -> result`` of every computed cell.
        self.results: Dict[Tuple[str, Cell], object] = {}
        #: The same cells as returned by the ``--resume`` pass.
        self.resumed: Dict[Tuple[str, Cell], object] = {}
        #: Events simulated: one trace length per computed cell.
        self.events = 0
        self.counts = {"generated_events": 0, "cache_bytes": 0}
        #: Telemetry run directories (traced passes): main, then resume.
        self.telemetry_runs: List[str] = []
        #: Host-speed samples (``calib.sample``) before, during and after.
        self.calib: List[float] = []
        #: Peak RSS of the pass's process and its pool workers, in MB.
        self.peak_rss_mb = 0.0
        #: Seconds of the samples taken inside the pass, all of them in
        #: ``run_grid``.  A sum, not spans: a span record per sample
        #: would move the cyclic GC, and so the peak RSS.
        self.calib_s = 0.0

    @property
    def wall_s(self) -> float:
        """Seconds of the pass, without the calibrations inside it."""
        return self.spans.total("pass") - self.calib_s

    @property
    def grid_s(self) -> float:
        """Seconds inside ``run_grid``, without calibrations."""
        return self.spans.total("engine.grid") - self.calib_s


class _Calibrator:
    """Samples the host's speed into a pass record between serial cells.

    It samples once the work since the last sample is
    ``calib.WORK_PER_SAMPLE`` times as long as that sample took.
    """

    def __init__(self, record: PassRecord, kind: str):
        self.record = record
        self.kind = kind
        self.last = time.perf_counter()
        self.took = 0.0

    def now(self) -> None:
        self.took = calib.sample(self.record.calib, self.kind)
        self.last = time.perf_counter()
        self.record.calib_s += self.took

    def after_cells(self, run_cell):
        """Wrap ``SharedPrecompute.run_cell`` to sample when due."""
        def run(cell):
            result = run_cell(cell)
            if (time.perf_counter() - self.last
                    >= calib.WORK_PER_SAMPLE * self.took):
                self.now()
            return result
        return run


def _telemetry(directory: Optional[str], record: PassRecord, label: str):
    """A telemetry run recording under ``directory``; a no-op for None."""
    if directory is None:
        return contextlib.nullcontext()
    run = RunTelemetry(directory, config={"benchmark": label})
    record.telemetry_runs.append(run.directory)
    return run


def run_pass(workload: str, seed: int, run_id: str, *,
             scratch_dir: str, telemetry_dir: Optional[str] = None,
             calibrate: bool = False) -> PassRecord:
    """Run one complete pass of ``workload``.

    ``scratch_dir`` holds cold-parallel's fresh trace cache and checkpoint
    journal.  With ``telemetry_dir`` the pass is traced: the program's
    telemetry is recorded there, and serial cells are spanned one by one.
    With ``calibrate``, the host's speed is sampled inside the pass,
    after serial cells.
    """
    cold = workload == "cold-parallel"
    jobs = engine_jobs(workload)
    cache_dir = os.path.join(scratch_dir, "traces") if cold else WARM_CACHE_DIR
    ckpt_dir = os.path.join(scratch_dir, "ckpt") if cold else None
    spans = Spans(run_id)
    record = PassRecord(spans, traced=telemetry_dir is not None)
    calibrator = _Calibrator(record, calib.KIND[workload])
    todo = plan(workload, seed)
    loaded = []
    with spans.span("pass"):
        with _telemetry(telemetry_dir, record, workload):
            cache = WorkloadTraceCache(cache_dir)
            for wl, grids in todo:
                timed = _TimedWorkload(wl, spans, record.counts)
                with spans.span("trace.cache_get"):
                    trace = cache.get(timed)
                key = workload_cache_key(wl)
                with spans.span("engine.build"):
                    engine = SweepEngine(trace, jobs=jobs,
                                         checkpoint_dir=ckpt_dir,
                                         trace_key=key,
                                         telemetry_dir=telemetry_dir)
                with spans.span("engine.precompute"):
                    pre = engine.precompute
                if record.traced and jobs == 1:
                    pre.run_cell = _spanned_cells(pre.run_cell, spans)
                if calibrate and jobs == 1:
                    pre.run_cell = calibrator.after_cells(pre.run_cell)
                for cells in grids:
                    with spans.span("engine.grid"):
                        results = engine.run_grid(cells)
                    for cell, result in zip(cells, results):
                        record.results[(trace.name, cell)] = result
                    record.events += len(trace) * len(cells)
                # The wrappers close over ``pre``: drop them, or the cycle
                # keeps every trace's precompute alive until a GC pass.
                vars(pre).pop("run_cell", None)
                loaded.append((trace, key, grids))
        if cold:
            with spans.span("runtime.resume"):
                with _telemetry(telemetry_dir, record, workload + "-resume"):
                    for trace, key, grids in loaded:
                        engine = SweepEngine(trace, jobs=jobs,
                                             checkpoint_dir=ckpt_dir,
                                             trace_key=key,
                                             telemetry_dir=telemetry_dir)
                        for cells in grids:
                            for cell, result in zip(cells,
                                                    engine.run_grid(cells)):
                                record.resumed[(trace.name, cell)] = result
    record.counts["cache_bytes"] = sum(
        os.path.getsize(cache.path_for(wl)) for wl, _ in todo)
    return record


def dubois_rows_kept(workload: str, seed: int,
                     traces: Dict[str, object]) -> float:
    """Rows the Dubois no-op-read elision keeps, over trace rows.

    Summed over every Dubois cell (classify and compare) of one pass;
    0 when the workload has none.
    """
    kept = rows = 0
    for wl, grids in plan(workload, seed):
        trace = traces[wl.label]
        pre = SweepEngine(trace).precompute
        for cell in (c for grid in grids for c in grid):
            if cell[0] == "compare" or cell[2] == "dubois":
                mask = pre.dubois_keep_mask(BlockMap(cell[1]))
                kept += len(pre.data.proc) if mask is None else int(mask.sum())
                rows += len(trace)
    return kept / rows if rows else 0.0
