"""The benchmark's correctness gate.

Simulated statistics are a pure function of the trace, and the trace a
pure function of the workload seed, so every cell a pass computes must
digest (:func:`repro.obs.manifest.result_digest`) to the same value:

* wherever its trace is one whose content is pinned in ``pins.json``
  (every trace at :data:`PINNED_SEED`), to the pinned digest;
* at any seed, to the paper's identities in
  :mod:`repro.analysis.invariants`;
* on cold-parallel, to the same cell computed serially in one process
  (the sharded finite cell and every ``--resume`` result included);
* on every pass, to the first pass of the run.

``python3 perfbench/gate.py`` rewrites ``pins.json`` from the
interpreted, serial oracles.  Only do that when the simulated semantics
change on purpose, and say so in the change.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional, Set, Tuple

import bench
from repro.analysis.engine import SweepEngine
from repro.analysis.invariants import (
    check_block_size_monotonicity,
    check_min_is_essential,
    check_protocol_ordering,
    check_total_miss_agreement,
)
from repro.analysis.sweep import SweepResult
from repro.obs.manifest import result_digest
from repro.trace.cache import WorkloadTraceCache, workload_cache_key

#: The seed whose traces are pinned: seed 0 is the registry's default,
#: so these are the traces behind EXPERIMENTS.md.  Only MP3D's generator
#: reads the seed, so the other traces are pinned at every seed.
PINNED_SEED = 0

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")

Key = Tuple[str, tuple]


def load_pins() -> Dict[str, Dict[str, str]]:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def digests(results: Dict[Key, object]) -> Dict[Key, str]:
    return {key: result_digest(result) for key, result in results.items()}


def content_key(trace) -> str:
    """The trace's content identity: the engine's default journal key."""
    return SweepEngine(trace).trace_key


def check_pins(digested: Dict[Key, str], traces: Dict[str, object],
               pins: Dict[str, Dict[str, str]], *, require: bool
               ) -> Tuple[Set[Key], List[str]]:
    """Cells of pinned traces whose digest differs from the pin.

    Pins are keyed by :func:`content_key`, so a trace is checked at any
    seed that generates it.  With ``require`` a trace with no pins fails
    every cell too: its generator changed.
    """
    keys = {name: content_key(trace) for name, trace in traces.items()}
    bad, messages = set(), []
    for (trace, cell), digest in digested.items():
        pinned_trace = pins.get(keys[trace])
        if pinned_trace is None and not require:
            continue
        pinned = (pinned_trace or {}).get(bench.cell_key(cell))
        if pinned != digest:
            bad.add((trace, cell))
            messages.append(f"{keys[trace]} {bench.cell_key(cell)}: digest "
                            f"{digest} != pinned {pinned}")
    return bad, messages


def check_invariants(results: Dict[Key, object], traces: Dict[str, object]
                     ) -> Tuple[Set[Key], List[str]]:
    """The paper's identities over one pass's results.

    A violated identity fails every cell it was checked over.
    """
    bad, messages = set(), []

    def fail(keys, violations, what):
        if violations:
            bad.update(keys)
            messages.extend(f"{what}: {v}" for v in violations)

    by_trace: Dict[str, Dict[tuple, object]] = {}
    for (trace, cell), result in results.items():
        by_trace.setdefault(trace, {})[cell] = result
    for name, cells in sorted(by_trace.items()):
        sweep = sorted((c for c in cells if c[0] == "classify"),
                       key=lambda c: c[1])
        if sweep:
            result = SweepResult(trace_name=name,
                                 block_sizes=tuple(c[1] for c in sweep),
                                 breakdowns=tuple(cells[c] for c in sweep))
            fail([(name, c) for c in sweep],
                 check_block_size_monotonicity(result),
                 f"{name} block-size monotonicity")
        for cell in cells:
            if cell[0] == "compare":
                fail([(name, cell)], check_total_miss_agreement(cells[cell]),
                     f"{name} {bench.cell_key(cell)}")
        for block in sorted({c[1] for c in cells if c[0] == "protocol"}):
            group = {c[2]: c for c in cells
                     if c[0] == "protocol" and c[1] == block}
            fail([(name, c) for c in group.values()],
                 check_protocol_ordering({p: cells[c]
                                          for p, c in group.items()}),
                 f"{name} B={block} protocol ordering")
            if "MIN" in group:
                fail([(name, group["MIN"])],
                     check_min_is_essential(traces[name],
                                            cells[group["MIN"]]),
                     f"{name} B={block} MIN is essential")
    return bad, messages


def load_traces(workload: str, seed: int) -> Dict[str, object]:
    """The workload's traces from the warm cache (generated if missing)."""
    cache = WorkloadTraceCache(bench.WARM_CACHE_DIR)
    return {wl.label: cache.get(wl) for wl, _ in bench.plan(workload, seed)}


def serial_results(workload: str, seed: int, traces: Dict[str, object], *,
                   kernel: str = "auto") -> Dict[Key, object]:
    """Every cell of ``workload`` computed serially in this process."""
    out = {}
    for wl, grids in bench.plan(workload, seed):
        trace = traces[wl.label]
        engine = SweepEngine(trace, kernel=kernel,
                             trace_key=workload_cache_key(wl))
        cells = [cell for grid in grids for cell in grid]
        for cell, result in zip(cells, engine.run_grid(cells)):
            out[(trace.name, cell)] = result
    return out


def score(workload: str, seed: int, records, traces: Dict[str, object],
          pins: Optional[Dict[str, Dict[str, str]]] = None
          ) -> Tuple[int, int]:
    """``(attempted, failed)`` over every cell of every pass in ``records``.

    The first pass is the reference: it is checked against the pins
    (``pins.json`` unless given), the paper's identities and, on
    cold-parallel, a serial in-process re-run; every later result must
    equal it.
    Reasons for failures go to standard error.
    """
    reference = records[0].results if records else {}
    bad, messages = check_invariants(reference, traces)
    ref_digests = digests(reference)
    pin_bad, pin_messages = check_pins(
        ref_digests, traces, load_pins() if pins is None else pins,
        require=seed == PINNED_SEED)
    bad |= pin_bad
    messages += pin_messages
    cold = workload == "cold-parallel"
    if cold:
        serial = digests(serial_results(workload, seed, traces))
        for key, digest in ref_digests.items():
            if serial.get(key) != digest:
                bad.add(key)
                messages.append(f"{key[0]} {bench.cell_key(key[1])}: pool "
                                f"digest {digest} != serial {serial.get(key)}")
    for message in messages:
        print(f"gate: {message}", file=sys.stderr)
    expected = [(wl.label, cell) for wl, grids in bench.plan(workload, seed)
                for cells in grids for cell in cells]
    attempted = failed = 0
    for rec in records:
        for results in ((rec.results, rec.resumed) if cold
                        else (rec.results,)):
            got = digests(results)
            for key in expected:
                attempted += 1
                if (key in bad or key not in got
                        or got[key] != ref_digests.get(key)):
                    failed += 1
    return attempted, failed


def main() -> int:
    """Rewrite ``pins.json`` from the interpreted serial oracles."""
    pins: Dict[str, Dict[str, str]] = {}
    for workload in bench.WORKLOADS:
        traces = load_traces(workload, PINNED_SEED)
        results = serial_results(workload, PINNED_SEED, traces,
                                 kernel="interpreted")
        for (trace, cell), digest in digests(results).items():
            pins.setdefault(content_key(traces[trace]),
                            {})[bench.cell_key(cell)] = digest
        print(f"{workload}: {len(results)} cells", file=sys.stderr)
    with open(PINS_PATH, "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
