"""Host-speed calibration for the repo benchmark.

The benchmark runs on a few cores of a shared host whose speed moves
by tens of percent from minute to minute as other tenants load it.  A
fixed reference loop, timed in the same process as the work, before
and after it and (the ``python`` loop) between its cells, measures that
speed.  Each timed
end-to-end metric is reported in *reference seconds*: seconds as
measured, times ``REFERENCE_S / mean loop time``, i.e. the time the same
work takes on the host when the loop takes ``REFERENCE_S``.  The loops
run no code of ``src/repro``, so a change to the program moves the
metrics in full.

Two loops match the two kinds of work the workloads do: ``python``
(dict and integer operations in the interpreter, like the delayed
protocols and trace generation) and ``numpy`` (sorts and scans over
arrays larger than a core's caches, like the vectorized kernels and
the precompute).  NumPy is
imported on first use, so a ``python`` sample taken before a timed
import does not change what that import loads.
"""

from __future__ import annotations

import mmap
import time
from typing import Dict, List

#: About the loop time on a quiet reference host (a 2-vCPU KVM guest,
#: Intel Xeon Sapphire Rapids); it only sets the scale of the metrics.
REFERENCE_S = {"python": 0.15, "numpy": 0.1}

#: Runs of a loop per sample: one run is short enough for a burst on
#: the host to dominate it.
REPEAT = 2

#: Elements of the ``numpy`` loop's two arrays: 8 MB each, beyond a
#: core's own caches, so the loop feels the host's shared caches and
#: memory the way the kernels' large arrays do.
NUMPY_N = 1_000_000

#: The loops a pass may sample inside it.  The ``numpy`` loop maps 16 MB,
#: which would add to the pass's peak RSS there; it samples only before
#: and after the pass.
IN_PASS = ("python",)


def python_loop() -> float:
    start = time.perf_counter()
    table: Dict[int, int] = {}
    acc = 0
    for i in range(600_000):
        key = (i * 7919) & 4095
        table[key] = table.get(key, 0) + i
        acc ^= key
    return time.perf_counter() - start


def numpy_loop() -> float:
    import numpy as np
    # Anonymous maps, not malloc, and no temporaries: freeing arrays this
    # size through malloc raises glibc's mmap threshold, which moves
    # where the workload's own arrays go, and so its peak RSS.
    size = 8 * NUMPY_N
    with mmap.mmap(-1, size) as a_map, mmap.mmap(-1, size) as b_map:
        a = np.frombuffer(a_map, dtype=np.int64)
        b = np.frombuffer(b_map, dtype=np.int64)
        start = time.perf_counter()
        a.fill(1)
        np.cumsum(a, out=a)
        np.multiply(a, 2654435761, out=a)
        np.remainder(a, 1000003, out=a)
        for _ in range(4):
            np.copyto(b, a)
            b.sort()
            np.cumsum(b, out=b)
            np.maximum.accumulate(a, out=b)
        elapsed = time.perf_counter() - start
        del a, b  # the maps close only once no array uses them
    return elapsed


LOOPS = {"python": python_loop, "numpy": numpy_loop}

#: The loop that does the same kind of work as each workload's hot
#: layer, and so slows down with the host as the workload does.
KIND = {"fig5-classify": "numpy", "fig6-protocols": "python",
        "cold-parallel": "numpy"}

#: Seconds of work per second of calibration inside a pass.
WORK_PER_SAMPLE = 4


def sample(into: List[float], kind: str) -> float:
    """Append the mean time of ``REPEAT`` runs of the ``kind`` loop.

    Only a float is added, so a sample allocates almost nothing the
    cyclic GC counts.  Returns the seconds the sample took.
    """
    start = time.perf_counter()
    into.append(sum(LOOPS[kind]() for _ in range(REPEAT)) / REPEAT)
    return time.perf_counter() - start


def scale(samples: List[float], kind: str) -> float:
    """Reference seconds per measured second over ``samples``.

    The mean loop time, not the median: a unit of work takes the sum of
    its moments, so the host's mean slowness over it is what matters.
    """
    return REFERENCE_S[kind] * len(samples) / sum(samples)
