"""Ablation: why the paper uses trace-driven simulation (section 5.0).

"Early on in this project we used execution-driven simulation.  We quickly
ran into problems because modifying the schedule of invalidations resulted
in different executions of the benchmarks ...  The effects of different
scheduling of invalidations were buried into the effects of altered
executions in unpredictable ways.  Therefore, we decided to use
trace-driven simulation instead."

We demonstrate both halves of that argument on our simulated machine:

1. *executions vary*: running the same program under different processor
   scan orders yields different traces with measurably different miss
   counts (the noise execution-driven evaluation would have to fight);
2. *trace-driven is exact*: on a fixed trace, every protocol comparison is
   bit-for-bit reproducible.
"""

from repro.classify import classify
from repro.protocols import run_protocols
from repro.workloads import MP3D

SEEDS = (0, 1, 2, 3, 4)


def _mp3d(order, seed):
    wl = MP3D(200, num_cells=64, time_steps=10, num_procs=16, seed=3)
    return wl.generate(order=order) if order != "random" else \
        _random_order_trace(wl, seed)


def _random_order_trace(wl, seed):
    from repro.execution.scheduler import Machine
    from repro.mem.allocator import Allocator
    allocator = Allocator()
    threads = wl.build_threads(allocator)
    machine = Machine(wl.num_procs, order="random", seed=seed)
    return machine.run(threads, name=f"{wl.label}#seed{seed}",
                       meta={"data_set_bytes": allocator.used_bytes})


def test_execution_driven_variability(benchmark):
    def run():
        counts = {}
        for seed in SEEDS:
            trace = _mp3d("random", seed)
            bd = classify(trace, 64)
            counts[seed] = (len(trace), bd.total, bd.essential)
        return counts

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"{'seed':>5s} {'events':>8s} {'misses':>8s} {'essential':>10s}")
    for seed, (events, misses, essential) in counts.items():
        print(f"{seed:>5d} {events:>8d} {misses:>8d} {essential:>10d}")

    totals = [c[1] for c in counts.values()]
    # Different machine-level schedules -> genuinely different executions.
    assert len(set(totals)) > 1, \
        "execution-driven runs should differ across schedules"
    spread = (max(totals) - min(totals)) / min(totals)
    print(f"miss-count spread across executions: {100 * spread:.2f}%")
    benchmark.extra_info["spread"] = spread


def test_trace_driven_reproducibility(benchmark, mp3d200):
    """On one fixed trace, protocol effects are deterministic — the
    methodological payoff the paper switched for."""
    def run():
        a = run_protocols(mp3d200, 64)
        b = run_protocols(mp3d200, 64)
        return a, b

    a, b = benchmark.pedantic(run, rounds=1, iterations=1)
    for name in a:
        assert a[name].breakdown.as_dict() == b[name].breakdown.as_dict()
        assert a[name].counters.as_dict() == b[name].counters.as_dict()
    print("\nall seven protocols bit-for-bit reproducible on a fixed trace")
