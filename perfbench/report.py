"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/report.py [--seeds 10]

Runs perfbench/run.py once per (workload, seed), for every workload in
BENCHMARK.json and seeds 1..N, one run at a time, each for run_seconds.  It
prints for every metric its median, quartiles and spread, the distance
between the quartiles as a share of the median (statistics.quantiles with
n=4), and sets each spread against a third of the metric's bound.  It exits
with 1 when any spread is wider than that.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.splitlines()
            if proc.returncode or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed} failed with exit code {proc.returncode}")
            runs.append(result := json.loads(lines[-1]))
            print(f"# {workload} seed {seed}: attempted {result['attempted']}, failed {result['failed']}",
                  flush=True)
        print(f"{workload:16s} {'metric':36s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}  bound/3")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med
            limit = bounds[name] / 3
            steady &= spread <= limit
            unit = runs[0]["metrics"][name]["unit"]
            print(f"{'':16s} {name + ' [' + unit + ']':36s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f}  {limit:.4f}{'' if spread <= limit else '  TOO WIDE'}")
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"{'':16s} fail_ratio {failed / attempted:.6g} ({failed} of {attempted} invocations)", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
