#!/usr/bin/env python3
"""Runs one workload of the rfipc benchmark.

    python3 perfbench/run.py --workload <name> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. Builds perfbench/ (the rfipc service
modules from src/ plus the benchmark runner) with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
the workload. The last line of standard output is the result object;
the line before it carries the host and build stamp, sample counts and
the oracle's findings. See perfbench/DESIGN.md.

A build's cost depends on the process it runs in, so an untraced run
builds the deployment in SETUP_PROCESSES processes (the measuring ones
plus short-lived --setup-only probes), and setup_s is the median over
processes of each one's median build. The inline workloads' untraced
run is split into SPLIT processes of equal length, pooled into one
result.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("inline_skewed", "inline_unique", "wire_read", "update_churn")
# Every process of one run, probes included, ends within this time, so
# that the run stays under three minutes once the build is done.
RUN_BUDGET_S = 160
PROBE_TIMEOUT_S = 4
SETUP_PROCESSES = 9
# The inline workloads run on one thread, and on a shared host its speed
# changes from process to process as well as over seconds. Their
# untraced run measures in this many processes of equal length, each
# measuring at least MIN_PART_S (several 1 s latency windows).
SPLIT = {"inline_skewed": 6, "inline_unique": 6}
MIN_PART_S = 3


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(bdir, target):
    """Configures once and builds `target`; build chatter goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's own tests")
    args = ap.parse_args()

    bdir = build_dir()
    if args.self_test:
        build(bdir, "perfbench_selftest")
        sys.exit(subprocess.run([os.path.join(bdir, "perfbench_selftest")]).returncode)
    if args.workload is None:
        ap.error("--workload is required")

    build(bdir, "rfipc_perfbench")
    deadline = time.monotonic() + RUN_BUDGET_S
    parts = 1
    if args.trace == 0:
        parts = max(1, min(SPLIT.get(args.workload, 1), int(args.seconds // MIN_PART_S)))
    cmd = [os.path.join(bdir, "rfipc_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds / parts),
           "--trace", str(args.trace), "--workdir", bdir]
    probes = []
    if args.trace == 0:
        for _ in range(SETUP_PROCESSES - parts):
            lines, result = run_binary(cmd + ["--setup-only", "1"],
                                       min(PROBE_TIMEOUT_S, deadline - time.monotonic()))
            if not result["correct"]:
                finish(lines, result)
            probes.append(result["metrics"]["setup_s"]["value"])
    runs = []
    for _ in range(parts):
        lines, result = run_binary(cmd, deadline - time.monotonic())
        if not result["correct"]:
            finish(lines, result)
        runs.append((json.loads(lines[-2]), result))
    lines[-2:] = pool(runs, probes)
    finish(lines, result)


def pool(runs, probes):
    """Joins the processes of one run into its detail and result lines.

    Throughput is frames over the summed measured time, the latencies are
    the mean over processes of each one's mean over windows, peak RSS is
    the largest, and setup_s is the median over every process, probes
    included, of each one's median build.
    """
    detail, result = runs[-1]
    results = [r for _, r in runs]
    metrics = result["metrics"]
    if len(runs) > 1:
        frames = sum(r["attempted"] for r in results)
        seconds = sum(float(d["detail"]["measured_s"]) for d, _ in runs)
        metrics["throughput_mpps"]["value"] = frames / seconds / 1e6
        for key in ("latency_p50_us", "latency_p90_us"):
            values = [r["metrics"][key]["value"] for r in results]
            metrics[key]["value"] = statistics.fmean(values)
            detail["detail"]["process_" + key] = " ".join("%.6g" % v for v in values)
        detail["detail"]["process_throughput_mpps"] = " ".join(
            "%.6g" % r["metrics"]["throughput_mpps"]["value"] for r in results)
        detail["detail"]["measured_s"] = "%.6g" % seconds
        metrics["peak_rss_mib"]["value"] = max(r["metrics"]["peak_rss_mib"]["value"]
                                              for r in results)
        result["attempted"] = frames
        result["failed"] = sum(r["failed"] for r in results)
    if probes:
        setups = probes + [r["metrics"]["setup_s"]["value"] for r in results]
        metrics["setup_s"]["value"] = statistics.median(setups)
        detail["detail"]["setup_s_processes"] = " ".join("%.6g" % v for v in setups)
    return [json.dumps(detail), json.dumps(result)]


def finish(lines, result):
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(0 if result["correct"] else 1)


def run_binary(cmd, timeout_s):
    """Runs the benchmark binary; returns its output lines and result object."""
    if timeout_s <= 0:
        sys.exit("perfbench: out of time before %s" % " ".join(cmd))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout_s)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s" % (" ".join(cmd), timeout_s))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or len(lines) < 2:
        sys.exit("perfbench: %s exited with %d" % (" ".join(cmd), proc.returncode))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    return lines, result


if __name__ == "__main__":
    main()
