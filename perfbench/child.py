"""Fresh-process units of a benchmark run.

Every set-up and every pass runs in a process of its own, as each
command a user types does.  A second pass in the same process runs
~20% slower on fig6-protocols than the first, so in-process repeats
would measure something no user runs.

``python3 perfbench/child.py setup WORKLOAD SEED CACHE_DIR``
    Times importing the package, acquiring every trace through the
    trace cache, building one engine per trace and its shared
    precompute; prints one JSON object of seconds, with the calibration
    samples taken around them under ``calib``.

``python3 perfbench/child.py pass WORKLOAD SEED RUN_ID SCRATCH_DIR TELEMETRY_DIR OUT``
    Runs one calibrated pass (``bench.run_pass``; ``-`` as TELEMETRY_DIR
    for an untraced one) and pickles its ``PassRecord`` to OUT.
"""

import json
import os
import pickle
import resource
import sys
import time


def setup(workload: str, seed: int, cache_dir: str) -> dict:
    import calib  # imports no NumPy until a numpy sample
    kind = calib.KIND[workload]
    samples = []
    if kind == "python":
        # A numpy sample here would import NumPy ahead of the timed import.
        calib.sample(samples, kind)
    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (the import being timed)
    import repro.analysis.engine  # noqa: F401  (every sweep command loads it)
    import_s = time.perf_counter() - t0

    import bench
    from repro.trace.cache import WorkloadTraceCache, workload_cache_key

    times = {"cli.import_s": import_s, "trace.cache_get_s": 0.0,
             "engine.build_s": 0.0, "engine.precompute_s": 0.0}
    jobs = bench.engine_jobs(workload)
    todo = bench.plan(workload, seed)
    t_setup = time.perf_counter()
    cache = WorkloadTraceCache(cache_dir)
    for wl, _ in todo:
        t = time.perf_counter()
        trace = cache.get(wl)
        times["trace.cache_get_s"] += time.perf_counter() - t
        t = time.perf_counter()
        engine = bench.SweepEngine(trace, jobs=jobs,
                                   trace_key=workload_cache_key(wl))
        times["engine.build_s"] += time.perf_counter() - t
        t = time.perf_counter()
        engine.precompute
        times["engine.precompute_s"] += time.perf_counter() - t
    times["setup_s"] = import_s + time.perf_counter() - t_setup
    calib.sample(samples, kind)
    times["calib"] = samples
    return times


def main(argv) -> int:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    if argv[0] == "setup":
        print(json.dumps(setup(argv[1], int(argv[2]), argv[3])))
        return 0
    import bench
    import calib

    workload, seed, run_id, scratch_dir, telemetry_dir, out = argv[1:7]
    kind = calib.KIND[workload]
    samples = []
    calib.sample(samples, kind)
    record = bench.run_pass(
        workload, int(seed), run_id, scratch_dir=scratch_dir,
        telemetry_dir=None if telemetry_dir == "-" else telemetry_dir,
        calibrate=kind in calib.IN_PASS)
    # Read before the last sample, which is the benchmark's, not the pass's.
    record.peak_rss_mb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    calib.sample(samples, kind)
    record.calib = [samples[0], *record.calib, samples[1]]
    with open(out, "wb") as fh:
        pickle.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
