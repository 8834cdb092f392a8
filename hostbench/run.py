#!/usr/bin/env python3
"""Builds and runs the emcalc host-path benchmark (hostbench).

Run from the repository root:

    python3 hostbench/run.py --workload q6_antijoin --seed 1 \
        --seconds 25 --trace 0

The first run configures and builds hostbench/ (the emcalc library from
../src plus the client in hostbench.cc) as a Release build under
$CARGO_TARGET_DIR/hostbench (default .bench_build/hostbench) in the
repository root; later runs only check that the build is up to date. The client runs with a clean
environment for the library: every EMCALC_* variable is removed and
EMCALC_HARDWARE_THREADS is set so that the client thread plus the pool's
workers stay within the machine's cores. The last line printed is the
client's JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("q6_antijoin", "project_sort", "param_calls", "ingest_query")
# Intra-query threads, the client thread included (the thread pool runs
# HARDWARE_THREADS - 1 workers beside the caller).
MAX_THREADS = 2
RUN_TIMEOUT_S = 170


def fail(msg):
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the client; build output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "hostbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "hostbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to hostbench/; run from "
             "a full checkout")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    base = target if os.path.isabs(target) else os.path.join(root, target)
    build_dir = os.path.join(base, "hostbench")
    out_dir = os.path.join(build_dir, "results")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail("build failed: %s" % e)
    os.makedirs(out_dir, exist_ok=True)

    env = {k: v for k, v in os.environ.items() if not k.startswith("EMCALC_")}
    threads = max(1, min(MAX_THREADS, os.cpu_count() or 1))
    env["EMCALC_HARDWARE_THREADS"] = str(threads)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("client timed out after %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("client exited with code %d" % proc.returncode)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stderr.write(proc.stdout)
        fail("client printed no JSON result")
    for line in lines[:-1]:
        print(line)
    print("threads=%d (client + %d pool workers), nproc=%d"
          % (threads, threads - 1, os.cpu_count() or 1))
    if not isinstance(result, dict) or "metrics" not in result:
        fail("client result has no metrics")
    print(lines[-1])


if __name__ == "__main__":
    main()
