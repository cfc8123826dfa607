"""The repo benchmark: one workload, one seed, one JSON line of metrics.

Usage::

    python3 perfbench/run.py --workload fig5-classify --seed 0 \
        --seconds 10 --trace 0

A run generates the workload's traces from ``--seed`` (into the warm
trace cache, untimed), times several set-ups, then repeats whole passes
(``bench.run_pass``) until ``--seconds`` have elapsed, at least one
pass.  Each set-up and each pass runs in a fresh process (``child.py``)
and times a calibration loop next to its work, and the end-to-end times
are in reference seconds (``calib.py``).  With ``--trace 1`` the
passes alternate untraced and traced, and the run reports the per-layer
split of the traced ones instead of the end-to-end metrics.  Every run
ends with the correctness gate (``gate.py``); the last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``, and the exit
code is 1 when any cell failed or gave a wrong result.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import bench  # exits with a message outside a checkout
import calib
import gate
from repro.obs.manifest import load_manifest

HERE = os.path.dirname(os.path.abspath(__file__))

#: Fresh-process set-ups per run; ``setup_s`` is their median.
PROBES = 9

#: Units of every metric, in the order ``BENCHMARK.json`` lists them.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "correct_frac": "frac",
}

#: The interpreted schedules (OTF runs as a kernel).
INTERPRETED = ("MIN", "RD", "SD", "SRD", "WBWI", "MAX")

_PROTOCOL_METRICS = {}
for _p in INTERPRETED:
    _PROTOCOL_METRICS[f"protocols.{_p}.b64_s"] = "s"
    _PROTOCOL_METRICS[f"protocols.{_p}.b1024_s"] = "s"
    _PROTOCOL_METRICS[f"protocols.{_p}.b1024_over_b64"] = "ratio"

PER_LAYER = {
    "cli.import_s": "s",
    "workloads.generate_s": "s",
    "workloads.events": "count",
    "trace.cache_get_s": "s",
    "trace.cache_hit_ratio": "ratio",
    "trace.cache_bytes": "bytes",
    "engine.precompute_s": "s",
    "engine.grid_s": "s",
    "engine.cells": "count",
    "engine.dubois_rows_kept_frac": "frac",
    "kernels.classify_s": "s",
    "kernels.compare_s": "s",
    "kernels.otf_s": "s",
    **_PROTOCOL_METRICS,
    "protocols.finite_s": "s",
    "runtime.pool_efficiency": "ratio",
    "runtime.attempts_per_cell": "ratio",
    "runtime.shard_tasks": "count",
    "runtime.merge_s": "s",
    "runtime.journal_writes": "count",
    "runtime.journal_write_s": "s",
    "runtime.resume_s": "s",
    "runtime.resume_computed_cells": "count",
    "obs.overhead_pct": "%",
    "obs.records": "count",
    "host.calib_s": "s",
}


def run_child(*args: str) -> str:
    """Run ``child.py`` with ``args`` in a fresh process; its stdout."""
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), *args],
        check=True, stdout=subprocess.PIPE, text=True, timeout=170).stdout


def _read_events(run_dir: str) -> list:
    with open(os.path.join(run_dir, "events.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _cell_spans(events: list) -> list:
    """The program's per-task spans, without merge-synthesized ones."""
    return [e for e in events
            if e.get("kind") == "span" and e.get("status") == "ok"
            and e.get("name") in ("cell.run", "shard.run")
            and not e.get("attrs", {}).get("merged")]


def layer_metrics(workload: str, rec) -> dict:
    """The per-layer split of one traced pass."""
    sp = rec.spans
    m = {name: 0.0 for name in PER_LAYER}
    m["workloads.generate_s"] = sp.total("workloads.generate")
    m["workloads.events"] = rec.counts["generated_events"]
    m["trace.cache_get_s"] = sp.total("trace.cache_get")
    m["trace.cache_bytes"] = rec.counts["cache_bytes"]
    m["engine.precompute_s"] = sp.total("engine.precompute")
    m["engine.grid_s"] = rec.grid_s
    m["engine.cells"] = len(rec.results)

    main_run = rec.telemetry_runs[0]
    events = _read_events(main_run)
    counters = load_manifest(main_run)["counters"]
    lookups = counters["cache_hits"] + counters["cache_misses"]
    m["trace.cache_hit_ratio"] = (counters["cache_hits"] / lookups
                                  if lookups else 0.0)
    m["obs.records"] = sum(len(_read_events(run))
                           for run in rec.telemetry_runs)

    jobs = bench.engine_jobs(workload)
    if jobs == 1:
        # Serial cells ran in this process inside the benchmark's spans.
        for record in sp.records:
            if record["name"].startswith(("kernels.", "protocols.")):
                m[record["name"]] += record["end"] - record["start"]
    else:
        # Pool cells ran in workers; their spans come from the telemetry.
        busy = 0.0
        for span in _cell_spans(events):
            m[bench.cell_layer(span["attrs"]["cell"])] += span["dur_s"]
            busy += span["dur_s"]
        grid = m["engine.grid_s"]
        m["runtime.pool_efficiency"] = busy / (jobs * grid) if grid else 0.0
        assigned = sum(1 for e in events if e.get("name") == "task.assigned")
        done = sum(1 for e in events if e.get("name") == "task.done")
        m["runtime.attempts_per_cell"] = assigned / done if done else 0.0
        m["runtime.shard_tasks"] = sum(
            1 for e in _cell_spans(events) if e["name"] == "shard.run")
    for e in events:
        if e.get("kind") != "span":
            continue
        if e["name"] == "merge":
            m["runtime.merge_s"] += e["dur_s"]
        elif e["name"] == "checkpoint.write":
            m["runtime.journal_writes"] += 1
            m["runtime.journal_write_s"] += e["dur_s"]
    if len(rec.telemetry_runs) > 1:
        m["runtime.resume_s"] = sp.total("runtime.resume")
        m["runtime.resume_computed_cells"] = len(
            _cell_spans(_read_events(rec.telemetry_runs[1])))
    for p in INTERPRETED:
        b64 = m[f"protocols.{p}.b64_s"]
        m[f"protocols.{p}.b1024_over_b64"] = (
            m[f"protocols.{p}.b1024_s"] / b64 if b64 else 0.0)
    return m


def measure(args, scratch: str) -> dict:
    workload, seed = args.workload, args.seed
    label = f"{workload}-seed{seed}-p{os.getpid()}"
    cold = workload == "cold-parallel"
    if not cold:
        gate.load_traces(workload, seed)  # warm the cache, untimed

    kind = calib.KIND[workload]
    probes = []
    for i in range(PROBES):
        cache_dir = (os.path.join(scratch, f"probe-{i}") if cold
                     else bench.WARM_CACHE_DIR)
        probes.append(json.loads(
            run_child("setup", workload, str(seed), cache_dir)))
        if cold:
            shutil.rmtree(cache_dir, ignore_errors=True)

    records, crashed = [], False
    deadline = time.perf_counter() + args.seconds
    while True:
        i = len(records)
        traced = bool(args.trace) and i % 2 == 1
        pass_dir = os.path.join(scratch, f"pass-{i}")
        out = os.path.join(scratch, f"pass-{i}.pickle")
        telemetry = os.path.join(scratch, "telemetry") if traced else "-"
        try:
            run_child("pass", workload, str(seed), f"{label}/pass-{i}",
                      pass_dir, telemetry, out)
        except subprocess.SubprocessError:
            traceback.print_exc()
            crashed = True
            break
        finally:
            shutil.rmtree(pass_dir, ignore_errors=True)
        # Written by our own child process just now.
        with open(out, "rb") as fh:
            rec = pickle.load(fh)
        records.append(rec)
        print(f"pass {i}: wall_s={rec.wall_s:.4f} "
              f"grid_s={rec.grid_s:.4f} "
              f"scale={calib.scale(rec.calib, kind):.4f} "
              f"traced={int(rec.traced)}", file=sys.stderr)
        if (time.perf_counter() >= deadline
                and (not args.trace or len(records) % 2 == 0)):
            break

    traces = gate.load_traces(workload, seed)
    attempted, failed = gate.score(workload, seed, records, traces)
    if crashed:
        # The crashed pass, and its resume pass on cold-parallel.
        lost = sum(len(cells) for _, grids in bench.plan(workload, seed)
                   for cells in grids) * (2 if cold else 1)
        attempted += lost
        failed += lost

    untraced = [r for r in records if not r.traced]
    traced = [r for r in records if r.traced]
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    if not args.trace and untraced:
        # Each set-up and pass in reference seconds (``calib``).
        metrics = {
            "wall_s": statistics.median(
                r.wall_s * calib.scale(r.calib, kind) for r in untraced),
            "setup_s": statistics.median(
                p["setup_s"] * calib.scale(p["calib"], kind) for p in probes),
            "sim_events_per_s": statistics.median(
                r.events / (r.grid_s * calib.scale(r.calib, kind))
                for r in untraced),
            "peak_rss_mb": max(r.peak_rss_mb for r in untraced),
            "correct_frac": (attempted - failed) / attempted,
        }
    elif args.trace and traced:
        per_pass = [layer_metrics(workload, r) for r in traced]
        metrics = {name: statistics.median(p[name] for p in per_pass)
                   for name in PER_LAYER}
        metrics["cli.import_s"] = statistics.median(
            p["cli.import_s"] for p in probes)
        metrics["engine.dubois_rows_kept_frac"] = bench.dubois_rows_kept(
            workload, seed, traces)
        metrics["host.calib_s"] = statistics.median(
            statistics.fmean(r.calib) for r in traced)
        # Untraced and traced passes alternate; each adjacent pair ran
        # under near-identical machine load, and each is in reference
        # seconds.
        metrics["obs.overhead_pct"] = 100 * (statistics.median(
            (t.wall_s * calib.scale(t.calib, kind))
            / (u.wall_s * calib.scale(u.calib, kind))
            for u, t in zip(records[::2], records[1::2])) - 1)
        bench.write_spans(os.path.join(bench.WORK_DIR, "spans",
                                       f"{label}.jsonl"),
                          [r.spans for r in records])
    return {
        "correct": failed == 0 and not crashed,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=bench.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.makedirs(bench.WORK_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=bench.WORK_DIR)
    try:
        result = measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
