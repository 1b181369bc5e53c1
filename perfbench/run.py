#!/usr/bin/env python3
"""Builds and runs the end-to-end Pileus benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload read_only --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The benchmark binary is built from this directory's CMake package (which
compiles ../src) into .bench_build/perfbench. Build output goes to stderr.
Stdout carries the run context, one line per metric, and as its last line
the result JSON: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. Exits non-zero, without a result line, when the build
or the run fails, and with the binary's non-zero code when a correctness
check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("read_only", "mixed_50_50", "cached_read")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no Pileus sources at %s/src; run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, target)


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def check_result(line, trace):
    """Returns the parsed result line, or None when it breaks the contract."""
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return None
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return None
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        print("perfbench: metric mismatch, missing %s extra %s" % (missing, extra),
              file=sys.stderr)
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's unit tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perfbench_tests")
        sys.exit(subprocess.run([binary]).returncode)
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("e2e_bench")
    data_dir = os.path.join(ROOT, ".bench_build", "data-%d" % os.getpid())
    trace_dir = os.path.join(ROOT, ".bench_build", "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--data_dir", data_dir]
    if args.trace:
        command += ["--trace_out",
                    os.path.join(trace_dir, args.workload + ".spans.csv")]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        shutil.rmtree(data_dir, ignore_errors=True)
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    shutil.rmtree(data_dir, ignore_errors=True)

    lines = run.stdout.rstrip("\n").split("\n")
    result = check_result(lines[-1], args.trace) if lines else None
    if run.returncode not in (0, 1) or result is None:
        sys.stderr.write(run.stdout)
        fail("run failed (exit %d) or printed no valid result" % run.returncode)
    sys.stdout.write("\n".join(lines) + "\n")
    sys.stdout.flush()
    sys.exit(0 if result["correct"] and run.returncode == 0 else 1)


if __name__ == "__main__":
    main()
