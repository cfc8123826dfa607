#!/usr/bin/env python
"""Compare the seven invalidation schedules on a benchmark workload.

Regenerates one group of the paper's Figure 6 for a chosen benchmark and
block size, with the TRUE/COLD/FALSE decomposition rendered as stacked
ASCII bars.

Run:  python examples/protocol_comparison.py [WORKLOAD] [BLOCK_BYTES]
e.g.  python examples/protocol_comparison.py JACOBI64 1024
"""

import sys

from repro import run_protocols
from repro.analysis import format_stacked_bars
from repro.classify import classify
from repro.workloads import make_workload


def main(workload_name="JACOBI64", block_bytes=1024):
    print(f"Generating {workload_name} (16 simulated processors)...")
    trace = make_workload(workload_name).generate()
    counts = trace.counts()
    print(f"  {len(trace)} events ({counts.loads} loads, {counts.stores} "
          f"stores, {counts.acquires + counts.releases} sync)\n")

    essential = classify(trace, block_bytes).essential_rate
    print(f"Essential miss rate of the trace: {essential:.2f}% "
          f"(the floor any schedule can reach)\n")

    results = run_protocols(trace, block_bytes)
    rows = {name: {"TRUE": r.pts_rate, "COLD": r.cold_rate,
                   "FALSE": r.pfs_rate}
            for name, r in results.items()}
    print(format_stacked_bars(
        rows, title=f"{workload_name} @ B={block_bytes} bytes — miss rate "
                    f"decomposition (%)",
        glyphs={"TRUE": "T", "COLD": "C", "FALSE": "F"}))

    print()
    print("Reading the bars (paper section 7):")
    print(" * MIN is the essential rate — no F segment by construction.")
    print(" * OTF is the classic write-invalidate baseline.")
    print(" * RD/SD/SRD delay+combine invalidations to shrink the F part;")
    print("   the TRUE+COLD parts barely move across schedules.")
    print(" * WBWI ~ MIN at small blocks; at large blocks the gap is the")
    print("   cost of maintaining ownership.")
    print(" * MAX is the legal worst case under release consistency.")


if __name__ == "__main__":
    name = sys.argv[1] if len(sys.argv) > 1 else "JACOBI64"
    block = int(sys.argv[2]) if len(sys.argv) > 2 else 1024
    main(name, block)
