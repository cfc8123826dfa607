"""Print every benchmark metric, with its unit, for every workload.

Usage: ``python3 perfbench/report.py [--seed N] [--seconds S]``.  Runs
``run.py`` once untraced and once traced per workload (about four
minutes at the defaults on two cores), prints one table, and exits 1 if
any run failed the correctness gate.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    table, units, ok = {}, {}, True
    for workload in workloads:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                ok = False
                sys.stderr.write(proc.stderr)
            if not lines:
                continue
            result = json.loads(lines[-1])
            print(f"{workload} --trace {trace}: correct={result['correct']}"
                  f" attempted={result['attempted']}"
                  f" failed={result['failed']}")
            for name, metric in result["metrics"].items():
                table.setdefault(name, {})[workload] = metric["value"]
                units[name] = metric["unit"]
    print(f"\n{'metric':34s} {'unit':6s}"
          + "".join(f" {w:>16s}" for w in workloads))
    for name, row in table.items():
        print(f"{name:34s} {units[name]:6s}"
              + "".join(f" {row.get(w, float('nan')):16.6g}"
                        for w in workloads))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
