"""Cross-run performance history: record manifests, flag regressions.

A sweep's manifest already carries everything needed to compare runs —
per-cell durations, event rates, attempt counts, kernel mode and host.
This module gives those numbers a durable home: ``repro history record``
appends one run's stable summary to an append-only JSONL file (default
``PERF_HISTORY.jsonl``), and ``repro history show`` renders the trend
per cell and flags any cell whose latest duration regressed more than a
threshold against its *trailing median* — robust to the odd noisy run
in a way a previous-run comparison is not.

The file format is the same discipline as ``events.jsonl``: one JSON
object per line, never rewritten, torn tails tolerated on load.  The
throughput benchmark (``benchmarks/bench_throughput.py``) records its
telemetry-on run here too, so CI accumulates a perf trail for free.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError
from .logsetup import library_logger
from .manifest import load_run
from .report import _fmt_cell, _fmt_num, _table

#: Bump on any backwards-incompatible entry shape change.
HISTORY_VERSION = 1

#: How many trailing entries (per cell) form the comparison median.
DEFAULT_WINDOW = 8
#: Relative slowdown vs the trailing median that flags a regression.
DEFAULT_THRESHOLD = 0.25


def record_entry(manifest: dict, *, label: Optional[str] = None) -> dict:
    """One history line for a finished run's manifest.

    Only stable, comparable fields are kept — no absolute paths, no
    argv — so entries from different checkouts and machines line up.
    """
    cells = []
    for cell in manifest.get("cells", []):
        cells.append({
            "trace_key": cell.get("trace_key"),
            "cell": list(cell.get("cell") or ()),
            "status": cell.get("status"),
            "duration_s": cell.get("duration_s"),
            "events_per_sec": cell.get("events_per_sec"),
            "attempts": cell.get("attempts"),
            "shards": cell.get("shards"),
            "kernel": cell.get("kernel"),
            "host": cell.get("host"),
        })
    entry = {
        "v": HISTORY_VERSION,
        "run_id": manifest.get("run_id"),
        "finished_at": manifest.get("finished_at"),
        "outcome": manifest.get("outcome"),
        "duration_s": manifest.get("duration_s"),
        "cells": cells,
    }
    if label:
        entry["label"] = label
    return entry


def append_history(path: str, entry: dict) -> None:
    """Append one entry; the file is append-only and crash-tolerant."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")
        fh.flush()
        os.fsync(fh.fileno())


def record_run(run_path: str, history_path: str,
               *, label: Optional[str] = None) -> dict:
    """Record one run directory into the history file; returns the entry."""
    entry = record_entry(load_run(run_path), label=label)
    append_history(history_path, entry)
    return entry


def load_history(path: str) -> List[dict]:
    """All readable entries, oldest first; torn/garbled lines skipped."""
    entries: List[dict] = []
    if not os.path.exists(path):
        return entries
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                library_logger().warning(
                    "skipping torn history line %s:%d", path, lineno)
                continue
            if isinstance(entry, dict) and "cells" in entry:
                entries.append(entry)
    return entries


def _median(values: List[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _cell_series(entries: List[dict]) -> Dict[Tuple, List[dict]]:
    series: Dict[Tuple, List[dict]] = {}
    for entry in entries:
        for cell in entry.get("cells", []):
            if cell.get("status") not in (None, "ok", "done"):
                continue  # failed cells have no comparable duration
            key = (cell.get("trace_key"), tuple(cell.get("cell") or ()))
            series.setdefault(key, []).append(
                dict(cell, run_id=entry.get("run_id"),
                     label=entry.get("label")))
    return series


def check_regressions(entries: List[dict], *,
                      window: int = DEFAULT_WINDOW,
                      threshold: float = DEFAULT_THRESHOLD) -> dict:
    """Compare each cell's newest duration to its trailing median.

    The median is taken over up to ``window`` *prior* entries for the
    same (trace_key, cell); a cell with fewer than two prior samples is
    reported as ``baseline`` (nothing to compare against yet).  The
    newest run is the last entry in ``entries``.
    """
    cells: List[dict] = []
    if not entries:
        return {"runs": 0, "cells": cells, "regressions": []}
    series = _cell_series(entries)
    latest_run = entries[-1].get("run_id")
    for key, samples in sorted(series.items(), key=repr):
        newest = samples[-1]
        if newest.get("run_id") != latest_run:
            continue  # cell absent from the newest run
        prior = [s["duration_s"] for s in samples[:-1][-window:]
                 if isinstance(s.get("duration_s"), (int, float))]
        row = {
            "trace_key": key[0],
            "cell": list(key[1]),
            "runs": len(samples),
            "duration_s": newest.get("duration_s"),
            "events_per_sec": newest.get("events_per_sec"),
            "kernel": newest.get("kernel"),
            "host": newest.get("host"),
            "median_s": None,
            "delta_pct": None,
            "verdict": "baseline",
        }
        if len(prior) >= 2 and newest.get("duration_s"):
            median = _median(prior)
            row["median_s"] = round(median, 6)
            if median > 0:
                delta = (newest["duration_s"] - median) / median
                row["delta_pct"] = round(100.0 * delta, 2)
                row["verdict"] = ("regression" if delta > threshold
                                  else "improvement" if delta < -threshold
                                  else "stable")
        cells.append(row)
    return {
        "runs": len(entries),
        "latest_run": latest_run,
        "window": window,
        "threshold_pct": round(100.0 * threshold, 2),
        "cells": cells,
        "regressions": [c for c in cells if c["verdict"] == "regression"],
    }


def history_summary(path: str, *, window: int = DEFAULT_WINDOW,
                    threshold: float = DEFAULT_THRESHOLD) -> dict:
    entries = load_history(path)
    if not entries:
        raise ReproError(f"no history recorded at {path!r} "
                         f"(run `repro history record RUN` first)")
    summary = check_regressions(entries, window=window,
                                threshold=threshold)
    summary["path"] = path
    return summary


def render_history(summary: dict) -> str:
    """The plain-text ``repro history show`` trend table."""
    out: List[str] = []
    out.append(f"history {summary.get('path', '-')}: "
               f"{summary['runs']} run(s), latest "
               f"{summary.get('latest_run') or '-'}  "
               f"(window={summary['window']}, "
               f"flag >{summary['threshold_pct']:.0f}% vs median)")
    rows = []
    for cell in summary["cells"]:
        mark = {"regression": "▲ REGRESSED", "improvement": "▼ improved",
                "stable": "", "baseline": "(baseline)"}[cell["verdict"]]
        rows.append([
            _fmt_cell(cell["cell"]),
            str(cell["runs"]),
            _fmt_num(cell["duration_s"], "{:.3f}"),
            _fmt_num(cell["median_s"], "{:.3f}"),
            _fmt_num(cell["delta_pct"], "{:+.1f}%"),
            _fmt_num(cell["events_per_sec"], "{:.0f}"),
            str(cell.get("kernel") or "-"),
            str(cell.get("host") or "local"),
            mark,
        ])
    out.append(_table(["cell", "runs", "dur_s", "median_s", "Δ",
                       "ev/s", "kernel", "host", "verdict"], rows))
    out.append("")
    out.append(f"{len(summary['regressions'])} regression(s) over "
               f"{len(summary['cells'])} tracked cell(s)")
    return "\n".join(out) + "\n"
