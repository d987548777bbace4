#!/usr/bin/env python3
"""Build and run the TEA pipeline benchmark for one workload.

    python3 perfbench/run.py --workload fig5-cold --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The harness (perfbench/, a
CMake package of its own that compiles ../src) is configured and built
in $CARGO_TARGET_DIR, default .bench_build, then run once; it checks
every experiment's PICS digest against perfbench/reference.txt. Its
per-metric medians get their units from BENCHMARK.json, and the last
stdout line is the JSON result:

    {"correct": true, "attempted": N, "failed": 0,
     "metrics": {"wall_s": {"value": 6.5, "unit": "s"}, ...}}

--trace 0 reports the end_to_end metrics, --trace 1 the per_layer
ones. Extra flags: --smoke (a few experiments per workload, for the
benchmark's own test) and --corrupt-digest (self-test of the PICS
check; the run must fail). Exits non-zero, without a result line, when
the sources or the build are missing, and non-zero with a result line
when any experiment failed its checks.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fig5-cold", "fig5-warm", "sweep-kgen", "single-simpar")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure (once) and build the harness; returns its path."""
    out = build_dir()
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no TEA sources under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=600)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs,
                    "--target", "tea_perfbench"],
                   check=True, stdout=sys.stderr, timeout=840)
    exe = out / "tea_perfbench"
    if not exe.is_file():
        raise RuntimeError(f"build produced no {exe}")
    return exe


def metric_units(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def run_harness(exe, args, work):
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work),
           "--reference", str(HERE / "reference.txt")]
    if args.smoke:
        cmd.append("--smoke")
    if args.corrupt_digest:
        cmd.append("--corrupt-digest")
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"harness exceeded {RUN_TIMEOUT_S} s")
    return proc.returncode, stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--corrupt-digest", action="store_true")
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    try:
        exe = build()
    except (RuntimeError, OSError, subprocess.SubprocessError) as e:
        log(f"build failed: {e}")
        return 1

    runs = ROOT / ".bench_run"
    work = runs / f"{args.workload}-{os.getpid()}"
    try:
        code, stdout = run_harness(exe, args, work)
    except RuntimeError as e:
        log(str(e))
        return 1
    finally:
        for trace in work.glob("trace-*.json"):
            trace.replace(runs / trace.name)
        shutil.rmtree(work, ignore_errors=True)

    result = None
    for line in stdout.splitlines():
        if line.startswith("result "):
            result = json.loads(line[len("result "):])
        else:
            print(line)
    if result is None:
        log(f"harness exited {code} without a result")
        return code or 1

    units = metric_units(args.trace)
    got = result["metrics"]
    if set(got) != set(units):
        log("metric set differs from BENCHMARK.json: missing "
            f"{sorted(set(units) - set(got))}, extra "
            f"{sorted(set(got) - set(units))}")
        return 1
    print(f"iterations {result['iterations']} untraced, "
          f"{result['traced_iterations']} traced")
    for name in sorted(got):
        m = got[name]
        print(f"metric {name} = {m['value']:.6g} {units[name]} "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n {m['n']})")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": got[name]["value"], "unit": units[name]}
                    for name in sorted(got)},
    }))
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
