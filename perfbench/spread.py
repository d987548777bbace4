#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--out FILE]

Runs perfbench/run.py --trace 0 once per seed (1 to 10) on every
workload of BENCHMARK.json, the workloads in turn for each seed, and
reports, per metric, the median of the per-run values and the quartile
spread (Q3 - Q1) / median, with quartiles from
statistics.quantiles(values, n=4). Every spread should
stay below a third of its metric's bound in BENCHMARK.json; the script
prints the verdict, exits 1 when any spread is not, and with --out
writes the table as JSON (spread.json in this directory holds the last
recorded table).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def one_run(workload, seed, seconds):
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect result {result}")
    return {k: v["value"] for k, v in result["metrics"].items()}, elapsed


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    secs = {w: [] for w in workloads}
    # Seeds outermost, so each workload's runs span the whole set and a
    # slow phase of the host does not fall on one workload alone.
    for seed in SEEDS:
        for workload in workloads:
            values, elapsed = one_run(workload, seed, spec["run_seconds"])
            runs[workload].append(values)
            secs[workload].append(elapsed)
            print(f"{workload} seed {seed}: {elapsed:.1f} s "
                  f"wall_s {values['wall_s']:.4f}", flush=True)
    table = {}
    ok = True
    for workload in workloads:
        print(workload)
        table[workload] = {
            "runs": len(runs[workload]),
            "run_elapsed_s": round(statistics.median(secs[workload]), 1),
            "metrics": {}}
        for name, bound in bounds.items():
            vals = [r[name] for r in runs[workload]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            steady = spread < bound / 3
            ok &= steady
            table[workload]["metrics"][name] = {
                "median": med, "spread": round(spread, 5), "bound": bound}
            print(f"  {name:20s} median {med:12.6g} spread {spread:7.2%} "
                  f"bound {bound:.1%} {'ok' if steady else 'UNSTEADY'}")
    if args.out:
        Path(args.out).write_text(json.dumps(table, indent=2) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
