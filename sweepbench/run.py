#!/usr/bin/env python3
"""End-to-end sweep benchmark entry point.

Builds sweepbench/ (the library plus the benchmark program in sweepbench.cpp) with
CMake in Release mode, then runs one workload:

    python3 sweepbench/run.py --workload lockstep-small --seed 1 \
        --seconds 30 --trace 0

Run it from the repository root.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; --trace 0
reports the end-to-end metrics of BENCHMARK.json and --trace 1 the
per-layer ones.  `--selftest` runs a reduced-scale pass over every
workload, checks that each metric named in BENCHMARK.json is printed with
its unit, and checks that the correctness gate trips on a corrupted cache.

The build goes to $CARGO_TARGET_DIR/sweepbench (default
.bench_build/sweepbench); scratch caches and the span log go to
.sweepbench/.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
GATE_FAILED = 3


def fail(message):
    print(f"sweepbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the benchmark program; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("library sources (CMakeLists.txt, src/) not found beside "
             "sweepbench/; run from a full checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target_dir, "sweepbench")
    os.makedirs(build_dir, exist_ok=True)
    binary = os.path.join(build_dir, "sweepbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "--target", "sweepbench",
                      "-j", jobs])
        for step in steps:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build failed: " + " ".join(step))
    return binary


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns (exit code, stdout).

    The program measures for `seconds` after an untimed reference sweep and
    may finish one pass late, so it gets twice that plus a fixed margin.
    """
    timeout = 2 * seconds + 110
    workdir = os.path.join(".sweepbench", f"run-{os.getpid()}")
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--workdir", workdir,
               "--spans-out",
               os.path.join(".sweepbench", f"spans-{workload}-{seed}.jsonl"),
               *extra]
    os.makedirs(os.path.join(ROOT, ".sweepbench"), exist_ok=True)
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout:g} s")
    finally:
        shutil.rmtree(os.path.join(ROOT, workdir), ignore_errors=True)
    return done.returncode, done.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        fail("no output")
    return json.loads(lines[-1])


def selftest(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, stdout = run_binary(binary, workload, 7, 1, trace,
                                      ["--reduced"])
            result = last_json(stdout)
            if code != 0 or not result["correct"] or result["failed"]:
                fail(f"{workload} trace={trace}: gate failed (exit {code})")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"{workload} trace={trace}: metrics {got} != {want}")
            print(f"selftest: {workload} trace={trace}: "
                  f"{len(got)} metrics, {result['attempted']} cells checked")
    for mode in ("flip", "tamper"):
        code, stdout = run_binary(binary, "lockstep-small", 7, 1, 0,
                                  ["--reduced", "--corrupt", mode])
        result = last_json(stdout)
        if code != GATE_FAILED or result["correct"] or result["failed"] < 1:
            fail(f"gate did not trip on a {mode} cache entry")
        print(f"selftest: {mode} corruption tripped the gate "
              f"({result['failed']} of {result['attempted']} cells failed)")
    print("selftest: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    # A SystemExit raised inside subprocess.run kills and reaps the child, so
    # a terminated benchmark leaves no benchmark process behind.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    binary = build()
    if args.selftest:
        selftest(binary)
        return 0
    code, stdout = run_binary(binary, args.workload, args.seed, args.seconds,
                              args.trace)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
