#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md here).

One run of one workload, as BENCHMARK.json's command invokes it:

    python3 bench_e2e/run.py --workload walk_knn --seed 1 --seconds 10 --trace 0

builds the library and the benchmark from this checkout's sources into
.bench_build/bench_e2e (Release), runs it, and passes its output through:
metrics by name and unit, then one JSON line. The exit code is the
benchmark's: 0 on success, 1 when any answer differs from the sequential
scan, 2 on bad arguments or a missing source tree.

Steadiness mode runs one workload untraced on seeds 1..runs and prints
each end-to-end metric's median, quartiles and quartile spread as a share
of the median:

    python3 bench_e2e/run.py steady --workload asl_range --runs 10 \
        --seconds 10
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "bench_e2e")
BINARY = os.path.join(BUILD, "bench_e2e")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then lets the build tool bring the binary up to
    date. Build output goes to stderr so stdout stays the benchmark's."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources not found next to " + HERE)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                      "-j", str(os.cpu_count() or 1)])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step failed: %s" % e)
            if done.returncode != 0:
                fail("build step failed: " + " ".join(step))


def bench_args(workload, seed, seconds, trace):
    args = [BINARY, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans",
                 os.path.join(BUILD, "spans-%s-%d.json" % (workload, seed))]
    return args


def run_once(argv):
    parser = argparse.ArgumentParser(description="one benchmark run")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = parser.parse_args(argv)
    build()
    sys.stdout.flush()
    try:
        done = subprocess.run(bench_args(a.workload, a.seed, a.seconds,
                                         a.trace), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(done.returncode)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(argv):
    parser = argparse.ArgumentParser(description="steadiness mode")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10)
    a = parser.parse_args(argv)
    build()
    values = {}
    units = {}
    for seed in range(1, a.runs + 1):
        start = time.monotonic()
        try:
            done = subprocess.run(
                bench_args(a.workload, seed, a.seconds, 0),
                stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("seed %d exceeded %d s" % (seed, RUN_TIMEOUT_S), 1)
        wall = time.monotonic() - start
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            fail("seed %d exited %d" % (seed, done.returncode), 1)
        result = json.loads(lines[-1])
        print("seed %d: %.1f s wall, correct=%s attempted=%d failed=%d" %
              (seed, wall, result["correct"], result["attempted"],
               result["failed"]), flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        values.setdefault("run_wall_s", []).append(wall)
        units["run_wall_s"] = "s"
    print("%-34s %12s %12s %12s %8s" % ("metric", "q1", "median", "q3",
                                         "spread"))
    for name, vs in values.items():
        q1, med, q3 = quartiles(vs)
        spread = (q3 - q1) / abs(med) if med else float("nan")
        print("%-34s %12.6g %12.6g %12.6g %7.2f%%  %s" %
              (name, q1, med, q3, 100 * spread, units[name]))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "steady":
        steady(sys.argv[2:])
    else:
        run_once(sys.argv[1:])


if __name__ == "__main__":
    main()
