"""Self-tests of the benchmark.

Run with ``python3 perfbench/selftest.py`` (about three minutes on two
cores: it runs each workload once traced at the pinned seed).
"""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

import bench
import calib
import gate
import run

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def run_benchmark(workload: str, trace: int):
    """``(exit code, parsed last stdout line or None)`` of one short run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(bench.ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(gate.PINNED_SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, (json.loads(lines[-1]) if lines else None)


def values(result: dict) -> dict:
    return {name: m["value"] for name, m in result["metrics"].items()}


class Definitions(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        for section, emitted in (("end_to_end", run.END_TO_END),
                                 ("per_layer", run.PER_LAYER)):
            listed = {m["name"]: m["unit"] for m in spec[section]}
            self.assertEqual(listed, emitted)
            for name in listed:
                self.assertTrue(NAME_RE.fullmatch(name), name)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(bench.WORKLOADS))

    def test_pins_cover_every_cell(self):
        pins = gate.load_pins()
        for workload in bench.WORKLOADS:
            traces = gate.load_traces(workload, gate.PINNED_SEED)
            for wl, grids in bench.plan(workload, gate.PINNED_SEED):
                pinned = pins[gate.content_key(traces[wl.label])]
                for cell in (c for grid in grids for c in grid):
                    self.assertIn(bench.cell_key(cell), pinned)


class Calibration(unittest.TestCase):
    def test_scale_is_reference_over_mean_loop_time(self):
        self.assertAlmostEqual(calib.scale([0.3, 0.1], "python"),
                               calib.REFERENCE_S["python"] / 0.2)

    def test_samples_inside_a_pass_are_not_timed(self):
        record = bench.PassRecord(bench.Spans("selftest"), traced=False)
        calibrator = bench._Calibrator(record, "python")
        with record.spans.span("pass"):
            with record.spans.span("engine.grid"):
                calibrator.after_cells(lambda cell: None)(None)
                calibrator.now()
        self.assertEqual(len(record.calib), 2)
        self.assertLess(record.wall_s, 0.01)
        self.assertLess(record.grid_s, 0.01)

    def test_a_sample_barely_moves_the_cyclic_gc(self):
        # The GC's next run decides when a finished trace's engine is
        # freed, so a sample that allocated many objects would move
        # ``peak_rss_mb`` with the number of samples in a pass.
        for kind in calib.LOOPS:
            samples = []
            calib.sample(samples, kind)
            before = gc.get_count()[0]
            calib.sample(samples, kind)
            self.assertLess(abs(gc.get_count()[0] - before), 20, kind)


class Gate(unittest.TestCase):
    """The gate, in process, over one real cold-parallel pass at seed 0."""

    workload = "cold-parallel"

    @classmethod
    def setUpClass(cls):
        cls.traces = gate.load_traces(cls.workload, gate.PINNED_SEED)
        os.makedirs(bench.WORK_DIR, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=bench.WORK_DIR) as scratch:
            cls.record = bench.run_pass(cls.workload, gate.PINNED_SEED,
                                        "selftest", scratch_dir=scratch)

    def score(self, pins: dict, seed: int = gate.PINNED_SEED):
        return gate.score(self.workload, seed, [self.record], self.traces,
                          pins)

    def perturbed_pins(self, label: str) -> dict:
        pins = gate.load_pins()
        key = gate.content_key(self.traces[label])
        pins[key][bench.cell_key(bench.FINITE_CELL)] = "0" * 16
        return pins

    def test_pinned_pass_passes(self):
        attempted, failed = self.score(gate.load_pins())
        self.assertGreater(attempted, 0)
        self.assertEqual(failed, 0)

    def test_perturbed_digest_fails_the_gate(self):
        # The finite cell and its resumed copy.
        self.assertEqual(self.score(self.perturbed_pins("LU32"))[1], 2)

    def test_pins_apply_at_any_seed_that_generates_the_trace(self):
        self.assertEqual(
            self.score(self.perturbed_pins("LU32"), seed=1)[1], 2)

    def test_unpinned_trace_fails_only_at_the_pinned_seed(self):
        pins = gate.load_pins()
        del pins[gate.content_key(self.traces["MP3D200"])]
        self.assertGreater(self.score(pins)[1], 0)
        self.assertEqual(self.score(pins, seed=1)[1], 0)


class TracedRuns(unittest.TestCase):
    """One traced run per workload shows the separation each claims."""

    def traced(self, workload: str) -> dict:
        code, result = run_benchmark(workload, 1)
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        metrics = values(result)
        self.assertEqual(set(metrics), set(run.PER_LAYER))
        return metrics

    def assert_no_runtime(self, m: dict):
        for name, value in m.items():
            if name.startswith("runtime."):
                self.assertEqual(value, 0, name)
        self.assertEqual(m["workloads.generate_s"], 0)

    def test_cold_parallel(self):
        m = self.traced("cold-parallel")
        self.assertEqual(m["trace.cache_hit_ratio"], 0)
        self.assertGreater(m["workloads.generate_s"], 0)
        self.assertGreater(m["runtime.shard_tasks"], 0)
        self.assertEqual(m["runtime.resume_computed_cells"], 0)
        for name in ("runtime.pool_efficiency", "runtime.attempts_per_cell",
                     "runtime.merge_s", "runtime.journal_writes",
                     "runtime.journal_write_s", "runtime.resume_s",
                     "protocols.finite_s"):
            self.assertGreater(m[name], 0, name)

    def test_fig5_classify(self):
        m = self.traced("fig5-classify")
        self.assertEqual(m["trace.cache_hit_ratio"], 1)
        self.assert_no_runtime(m)
        for name, value in m.items():
            if name.startswith("protocols."):
                self.assertEqual(value, 0, name)
        self.assertGreater(m["kernels.classify_s"], 0)
        self.assertGreater(m["engine.dubois_rows_kept_frac"], 0)

    def test_fig6_protocols(self):
        m = self.traced("fig6-protocols")
        self.assertEqual(m["trace.cache_hit_ratio"], 1)
        self.assert_no_runtime(m)
        kernels = sum(v for k, v in m.items() if k.startswith("kernels."))
        self.assertLess(kernels, 0.02 * m["engine.grid_s"])
        self.assertGreater(m["protocols.MAX.b1024_s"], 0)


if __name__ == "__main__":
    unittest.main()
