#!/usr/bin/env python3
"""SCALE-bench entry point.

Builds the simulator and the benchmark drivers from source (CMake, into
$CARGO_TARGET_DIR or .bench_build), then runs one workload:

    python3 perfbench/run.py --workload storm_1m --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics (uninstrumented driver), --trace 1
the per-layer metrics (driver with the counting allocator and the per-step
layer attribution). The last line of stdout is the JSON result; build output
and check failures go to stderr. The exit code is non-zero when the build
fails or any output check fails.

    python3 perfbench/run.py --crosscheck

runs storm_1m at perf_core's size and seeds and compares the counts with
perf_core's fig10_1m_storm row.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("storm_1m", "epc_geo", "attach_burst")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configure once, then build incrementally; returns the build dir."""
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=BUILD_TIMEOUT_S)
        if res.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--crosscheck", action="store_true")
    args = ap.parse_args()
    if not args.crosscheck and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    out = build()
    if args.crosscheck:
        cmd = [os.path.join(out, "perfbench_trace"), "--crosscheck"]
    else:
        exe = "perfbench_trace" if args.trace else "perfbench_run"
        cmd = [os.path.join(out, exe), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    sys.stdout.flush()
    res = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
