"""Golden gate: regenerated small-suite traces still hit the benchmark pins.

``perfbench/pins.json`` pins, per trace content key, the result digest of
every benchmark cell.  Regenerating each small-suite trace at the default
seed must reproduce a pinned content key (generation and column packing
are byte-identical) and the pinned Fig. 5 digests at B=64 and B=1024;
LU32 also checks all seven Fig. 6 protocols at B=64 and B=1024 (the page
size, where the lifetime tracker's cost would grow with the block if it
walked the block's words).  The pins are only read here, never written.
"""

import json
import os

import pytest

from repro.analysis.engine import SweepEngine
from repro.obs.manifest import result_digest
from repro.workloads.registry import SMALL_SUITE, make_workload

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench", "pins.json")

SCHEDULES = ("MIN", "OTF", "WBWI", "RD", "SD", "SRD", "MAX")


@pytest.fixture(scope="module")
def pins():
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def golden_cells(name):
    cells = [(kind, block, which) for block in (64, 1024)
             for kind, which in (("classify", "dubois"), ("compare", None))]
    if name == "LU32":
        cells += [("protocol", block, p) for block in (64, 1024)
                  for p in SCHEDULES]
    return cells


@pytest.mark.parametrize("name", SMALL_SUITE)
def test_small_suite_matches_pins(pins, name):
    engine = SweepEngine(make_workload(name).generate())
    assert engine.trace_key in pins, (
        f"{engine.trace_key} is not a pinned trace: generation or packing "
        f"changed")
    pinned = pins[engine.trace_key]
    cells = golden_cells(name)
    for cell, result in zip(cells, engine.run_grid(cells)):
        key = "/".join(str(part) for part in cell)
        assert result_digest(result) == pinned[key], key
