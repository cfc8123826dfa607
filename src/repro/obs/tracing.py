"""Causal span trees and critical-path attribution over run telemetry.

PR 6 gave every run a flat, schema-checked ``events.jsonl``; the
recorder now stamps every span with ``trace_id``/``span_id``/
``parent_id`` (parents ride the supervisor's assign messages to forked
and TCP-remote workers, and remote timestamps are skew-normalized on
ingest — see :mod:`repro.runtime.transport`).  This module turns that
stream back into structure:

* :func:`build_tree` reconstructs the span DAG of a run — one rooted
  tree per sweep (``sweep.run`` is the root span) — and reports any
  orphans (spans whose parent never arrived) instead of hiding them;
* :func:`critical_path` decomposes a root span's wall time into the
  maximal non-overlapping chain of descendant spans plus the *idle*
  gaps between them (queue wait, dispatch, scheduling) — by
  construction the segments tile the root exactly, so the critical
  path's total always equals the sweep span's duration;
* :func:`trace_summary` / :func:`render_trace` back ``repro trace RUN``
  (rendered tree + top-N critical-path contributors with self-time
  percentages);
* :func:`diff_manifests` / :func:`render_diff` back
  ``repro diff RUN_A RUN_B`` — a per-cell regression table (duration,
  events/s, attempts, kernel, host) with threshold-flagged deltas.

The machinery is deliberately tolerant of pre-tracing artifacts: spans
recorded before span ids existed are counted as *untraced* and an
all-untraced run is a structured error, not a crash.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .manifest import EVENTS_NAME, load_run, single_run_dir
from .report import _fmt_cell, _fmt_num, _table
from .schema import iter_records

#: Gaps shorter than this are measurement noise, not idle time.
IDLE_EPS = 1e-4


class SpanNode:
    """One span of a reconstructed trace tree."""

    __slots__ = ("span_id", "parent_id", "name", "start", "dur_s",
                 "status", "attrs", "pid", "children")

    def __init__(self, record: dict):
        self.span_id: str = record["span_id"]
        self.parent_id: Optional[str] = record.get("parent_id")
        self.name: str = record.get("name", "?")
        self.start: float = float(record.get("t", 0.0))
        self.dur_s: float = float(record.get("dur_s", 0.0))
        self.status: str = record.get("status", "?")
        self.attrs: dict = record.get("attrs", {}) or {}
        self.pid = record.get("pid")
        self.children: List["SpanNode"] = []

    @property
    def end(self) -> float:
        return self.start + self.dur_s

    @property
    def target(self) -> Optional[str]:
        what = (self.attrs.get("cell") or self.attrs.get("trace")
                or self.attrs.get("key"))
        if isinstance(what, (list, tuple)):
            return _fmt_cell(what)
        return str(what) if what is not None else None

    @property
    def host(self) -> Optional[str]:
        return self.attrs.get("host")


class TraceTree:
    """The reconstructed span forest of one run."""

    def __init__(self, trace_id: Optional[str], roots: List[SpanNode],
                 nodes: Dict[str, SpanNode], orphans: List[SpanNode],
                 untraced: int):
        self.trace_id = trace_id
        self.roots = roots
        self.nodes = nodes
        #: Spans whose ``parent_id`` resolves to no recorded span.
        self.orphans = orphans
        #: Spans recorded without ids (pre-tracing artifacts).
        self.untraced = untraced


def load_spans(run_dir: str) -> List[dict]:
    """All span records of a run directory's ``events.jsonl``."""
    events = run_dir
    if os.path.isdir(run_dir):
        events = os.path.join(run_dir, EVENTS_NAME)
    if not os.path.exists(events):
        raise ReproError(f"no event stream at {events!r}")
    return [record for _, record in iter_records(events)
            if record.get("kind") == "span"]


def build_tree(spans: Sequence[dict]) -> TraceTree:
    """Reconstruct the span tree; orphans are kept visible, not dropped."""
    nodes: Dict[str, SpanNode] = {}
    untraced = 0
    trace_id = None
    for record in spans:
        if not record.get("span_id"):
            untraced += 1
            continue
        node = SpanNode(record)
        nodes[node.span_id] = node
        if trace_id is None:
            trace_id = record.get("trace_id")
    if not nodes:
        raise ReproError(
            "no traced spans in this run (recorded before span-id "
            "threading, or telemetry was off)")
    roots: List[SpanNode] = []
    orphans: List[SpanNode] = []
    for node in nodes.values():
        if node.parent_id is None:
            roots.append(node)
        elif node.parent_id in nodes:
            nodes[node.parent_id].children.append(node)
        else:
            orphans.append(node)
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.start, n.span_id))
    roots.sort(key=lambda n: (n.start, n.span_id))
    return TraceTree(trace_id, roots, nodes, orphans, untraced)


def load_tree(run_dir: str) -> TraceTree:
    return build_tree(load_spans(run_dir))


# ----------------------------------------------------------------------
# critical path
# ----------------------------------------------------------------------
def _clip(node: SpanNode, lo: float, hi: float) -> Tuple[float, float]:
    return (max(node.start, lo), min(node.end, hi))


def _best_chain(node: SpanNode) -> List[SpanNode]:
    """The maximal-coverage chain of non-overlapping children.

    Weighted interval scheduling over the children's (clipped)
    intervals, weight = covered duration: the classic O(n log n) DP.
    Ties break toward earlier spans, so the choice is deterministic.
    """
    import bisect

    kids = []
    for child in node.children:
        lo, hi = _clip(child, node.start, node.end)
        if hi - lo > 0:
            kids.append((lo, hi, child))
    if not kids:
        return []
    kids.sort(key=lambda k: (k[1], k[0]))
    ends = [k[1] for k in kids]
    n = len(kids)
    best: List[float] = [0.0] * (n + 1)
    take: List[bool] = [False] * (n + 1)
    for i in range(1, n + 1):
        lo, hi, _ = kids[i - 1]
        j = bisect.bisect_right(ends, lo, 0, i - 1)
        with_i = best[j] + (hi - lo)
        if with_i > best[i - 1]:
            best[i], take[i] = with_i, True
        else:
            best[i] = best[i - 1]
    chain: List[SpanNode] = []
    i = n
    while i > 0:
        if take[i]:
            lo, hi, child = kids[i - 1]
            chain.append(child)
            i = bisect.bisect_right(ends, lo, 0, i - 1)
        else:
            i -= 1
    chain.reverse()
    return chain


def critical_path(root: SpanNode) -> List[dict]:
    """Decompose ``root``'s wall time into span and idle segments.

    Returns chronologically ordered segments that tile ``[root.start,
    root.end]`` exactly: the longest chain of sweep → cell/shard/merge
    spans, with the gaps between them attributed as ``(idle)`` time
    under the enclosing span (queue wait, dispatch, scheduling).  The
    segment durations therefore always sum to the root's duration.
    """
    segments: List[dict] = []

    def walk(node: SpanNode, lo: float, hi: float) -> None:
        chain = _best_chain(node)
        cursor = lo
        for child in chain:
            c_lo, c_hi = _clip(child, lo, hi)
            if c_lo - cursor > IDLE_EPS:
                segments.append({
                    "kind": "idle", "name": "(idle)",
                    "under": node.name, "target": node.target,
                    "host": None, "span_id": None,
                    "start": cursor, "end": c_lo,
                    "dur_s": c_lo - cursor,
                })
            if child.children:
                walk(child, c_lo, c_hi)
            else:
                segments.append({
                    "kind": "span", "name": child.name,
                    "under": node.name, "target": child.target,
                    "host": child.host, "span_id": child.span_id,
                    "start": c_lo, "end": c_hi,
                    "dur_s": c_hi - c_lo,
                })
            cursor = max(cursor, c_hi)
        if hi - cursor > IDLE_EPS:
            segments.append({
                "kind": "idle", "name": "(idle)",
                "under": node.name, "target": node.target,
                "host": None, "span_id": None,
                "start": cursor, "end": hi,
                "dur_s": hi - cursor,
            })

    if not root.children:
        # A leaf root: its whole duration is its own self time, never
        # idle (the trailing-gap branch above would otherwise claim it).
        return [{"kind": "span", "name": root.name,
                 "under": None, "target": root.target,
                 "host": root.host, "span_id": root.span_id,
                 "start": root.start, "end": root.end,
                 "dur_s": root.dur_s}]
    walk(root, root.start, root.end)
    return segments


def path_contributors(segments: Sequence[dict],
                      total: float) -> List[dict]:
    """Aggregate critical-path segments into ranked contributors.

    Groups by (kind, span name, target, host); ``self_pct`` is the
    group's share of the root span's duration.  Sorted largest first.
    """
    groups: Dict[Tuple, dict] = {}
    for seg in segments:
        key = (seg["kind"], seg["name"],
               seg.get("under") if seg["kind"] == "idle" else None,
               seg.get("target"), seg.get("host"))
        entry = groups.setdefault(key, {
            "kind": seg["kind"], "name": seg["name"],
            "under": seg.get("under") if seg["kind"] == "idle" else None,
            "target": seg.get("target"), "host": seg.get("host"),
            "dur_s": 0.0, "segments": 0,
        })
        entry["dur_s"] += seg["dur_s"]
        entry["segments"] += 1
    out = sorted(groups.values(), key=lambda g: -g["dur_s"])
    for entry in out:
        entry["dur_s"] = round(entry["dur_s"], 6)
        entry["self_pct"] = (round(100.0 * entry["dur_s"] / total, 2)
                             if total > 0 else None)
    return out


# ----------------------------------------------------------------------
# rendering (repro trace)
# ----------------------------------------------------------------------
def _node_dict(node: SpanNode) -> dict:
    return {
        "span_id": node.span_id,
        "parent_id": node.parent_id,
        "name": node.name,
        "target": node.target,
        "host": node.host,
        "t": node.start,
        "dur_s": node.dur_s,
        "status": node.status,
        "pid": node.pid,
        "children": [_node_dict(c) for c in node.children],
    }


def trace_summary(path: str, *, top: int = 10) -> dict:
    """``repro trace`` as data: tree, critical path, contributors."""
    run_dir = single_run_dir(path)
    tree = load_tree(run_dir)
    roots = []
    for root in tree.roots:
        segments = critical_path(root)
        total = root.dur_s
        roots.append({
            "root": _node_dict(root),
            "critical_path": segments,
            "contributors": path_contributors(segments, total),
            "path_total_s": round(sum(s["dur_s"] for s in segments), 6),
            "root_dur_s": round(total, 6),
        })
    return {
        "run_dir": run_dir,
        "trace_id": tree.trace_id,
        "spans": len(tree.nodes),
        "untraced_spans": tree.untraced,
        "orphan_spans": [n.span_id for n in tree.orphans],
        "roots": roots,
    }


def _render_node(node: dict, depth: int, out: List[str],
                 max_children: int) -> None:
    label = node["name"]
    if node.get("target"):
        label += f"  {node['target']}"
    extras = [f"{node['dur_s']:.3f}s", node.get("status") or "?"]
    if node.get("host"):
        extras.append(f"host={node['host']}")
    out.append(f"{'  ' * depth}{label}  [{' '.join(extras)}]")
    children = node.get("children", [])
    for child in children[:max_children]:
        _render_node(child, depth + 1, out, max_children)
    if len(children) > max_children:
        out.append(f"{'  ' * (depth + 1)}... {len(children) - max_children} "
                   f"more child span(s)")


def render_trace(path: str, *, top: int = 10,
                 max_children: int = 40) -> str:
    """The plain-text ``repro trace`` output for one run."""
    summary = trace_summary(path, top=top)
    out: List[str] = []
    out.append(f"run {os.path.basename(summary['run_dir'])}  "
               f"trace={summary['trace_id'] or '-'}  "
               f"spans={summary['spans']}  "
               f"roots={len(summary['roots'])}  "
               f"orphans={len(summary['orphan_spans'])}  "
               f"untraced={summary['untraced_spans']}")
    if summary["orphan_spans"]:
        out.append(f"  warning: {len(summary['orphan_spans'])} span(s) "
                   f"have unresolved parents and were promoted to roots")
    for entry in summary["roots"]:
        out.append("")
        _render_node(entry["root"], 0, out, max_children)
        total = entry["root_dur_s"]
        out.append("")
        out.append(f"critical path of {entry['root']['name']} "
                   f"({entry['path_total_s']:.3f}s over a "
                   f"{total:.3f}s span):")
        rows = []
        for i, c in enumerate(entry["contributors"][:top], start=1):
            what = c["name"] if c["kind"] == "span" else \
                f"(idle under {c['under']})"
            rows.append([
                str(i), what, str(c.get("target") or "-"),
                str(c.get("host") or "-"),
                f"{c['dur_s']:.3f}",
                _fmt_num(c.get("self_pct"), "{:.1f}%"),
                str(c["segments"]),
            ])
        out.append(_table(["#", "what", "target", "host", "dur_s",
                           "self", "segs"], rows))
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# run diffing (repro diff)
# ----------------------------------------------------------------------
def _load_run_manifest(path: str) -> dict:
    """A manifest-shaped dict from a run dir, a ``--telemetry`` dir with
    one run, or a ``repro report --json`` output file."""
    path = os.path.expanduser(path)
    if os.path.isfile(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(f"cannot read {path!r}: {exc}") from None
        if isinstance(data, dict) and "runs" in data:
            runs = data["runs"]
            if len(runs) != 1:
                raise ReproError(
                    f"{path!r} holds {len(runs)} runs; diff needs "
                    f"exactly one per side")
            return runs[0]
        if isinstance(data, dict) and "cells" in data:
            return data
        raise ReproError(f"{path!r} is not a manifest or report JSON")
    return load_run(path)


def _cell_key(entry: dict) -> Tuple:
    return (entry.get("trace_key"),
            tuple(entry.get("cell") or ()))


def diff_manifests(a: dict, b: dict, *, threshold: float = 0.2,
                   min_seconds: float = 0.005) -> dict:
    """Per-cell comparison of two runs of (ideally) the same grid.

    ``threshold`` is the relative duration change that flags a cell
    (0.2 = ±20 %); cells faster than ``min_seconds`` in both runs are
    never flagged — their deltas are noise.  Sign convention: positive
    ``delta_pct`` means run B is *slower* (a regression).
    """
    cells_a = {_cell_key(c): c for c in a.get("cells", [])}
    cells_b = {_cell_key(c): c for c in b.get("cells", [])}
    keys = list(cells_a)
    keys.extend(k for k in cells_b if k not in cells_a)
    rows: List[dict] = []
    for key in keys:
        ca, cb = cells_a.get(key), cells_b.get(key)
        entry: Dict[str, Any] = {
            "trace_key": key[0],
            "cell": list(key[1]),
            "only_in": "a" if cb is None else "b" if ca is None else None,
            "duration_a": ca.get("duration_s") if ca else None,
            "duration_b": cb.get("duration_s") if cb else None,
            "events_per_sec_a": ca.get("events_per_sec") if ca else None,
            "events_per_sec_b": cb.get("events_per_sec") if cb else None,
            "attempts_a": ca.get("attempts") if ca else None,
            "attempts_b": cb.get("attempts") if cb else None,
            "kernel_a": ca.get("kernel") if ca else None,
            "kernel_b": cb.get("kernel") if cb else None,
            "host_a": ca.get("host") if ca else None,
            "host_b": cb.get("host") if cb else None,
            "delta_pct": None,
            "flag": None,
        }
        da, db = entry["duration_a"], entry["duration_b"]
        if da and db:
            entry["delta_pct"] = round(100.0 * (db - da) / da, 2)
            if max(da, db) >= min_seconds:
                if db >= da * (1.0 + threshold):
                    entry["flag"] = "regression"
                elif da >= db * (1.0 + threshold):
                    entry["flag"] = "improvement"
        rows.append(entry)
    return {
        "run_a": a.get("run_id"),
        "run_b": b.get("run_id"),
        "threshold_pct": round(100.0 * threshold, 2),
        "cells": rows,
        "regressions": [r for r in rows if r["flag"] == "regression"],
        "improvements": [r for r in rows if r["flag"] == "improvement"],
    }


def diff_runs(path_a: str, path_b: str, *, threshold: float = 0.2,
              min_seconds: float = 0.005) -> dict:
    return diff_manifests(_load_run_manifest(path_a),
                          _load_run_manifest(path_b),
                          threshold=threshold, min_seconds=min_seconds)


def render_diff(diff: dict) -> str:
    """The plain-text ``repro diff`` regression table."""
    out: List[str] = []
    out.append(f"diff {diff.get('run_a') or 'A'} -> "
               f"{diff.get('run_b') or 'B'}  "
               f"(flag threshold ±{diff['threshold_pct']:.0f}%)")
    rows = []
    for entry in diff["cells"]:
        mark = {"regression": "▲ SLOWER", "improvement": "▼ faster",
                None: ""}[entry["flag"]]
        if entry["only_in"]:
            mark = f"only in {entry['only_in'].upper()}"
        kern = (entry.get("kernel_a") or "-", entry.get("kernel_b") or "-")
        host = (entry.get("host_a") or "local",
                entry.get("host_b") or "local")
        rows.append([
            _fmt_cell(entry["cell"]),
            _fmt_num(entry["duration_a"], "{:.3f}"),
            _fmt_num(entry["duration_b"], "{:.3f}"),
            _fmt_num(entry["delta_pct"], "{:+.1f}%"),
            _fmt_num(entry["events_per_sec_a"], "{:.0f}"),
            _fmt_num(entry["events_per_sec_b"], "{:.0f}"),
            f"{entry['attempts_a'] or 0}/{entry['attempts_b'] or 0}",
            kern[0] if kern[0] == kern[1] else f"{kern[0]}->{kern[1]}",
            host[0] if host[0] == host[1] else f"{host[0]}->{host[1]}",
            mark,
        ])
    out.append(_table(
        ["cell", "dur_a", "dur_b", "Δdur", "ev/s_a", "ev/s_b",
         "att a/b", "kernel", "host", "flag"], rows))
    out.append("")
    out.append(f"{len(diff['regressions'])} regression(s), "
               f"{len(diff['improvements'])} improvement(s) over "
               f"{len(diff['cells'])} cell(s)")
    return "\n".join(out) + "\n"
