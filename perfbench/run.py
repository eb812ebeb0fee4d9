#!/usr/bin/env python3
"""Builds and runs the GRED benchmark program (perfbench/gred_perfbench.cpp).

From the root of a checkout:

    python3 perfbench/run.py --workload read --seed 1 --seconds 10 --trace 0

The first run configures and builds the library modules and the program
with CMake in $CARGO_TARGET_DIR (default .bench_build); later runs only
rebuild what changed. Build output goes to stderr. The program's JSON
result is checked for shape and printed as the last line of stdout.
Traced runs (--trace 1) also write a sample of their spans to
.bench_out/spans-<workload>-<seed>.jsonl.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read", "skew", "churn")
# Configure + build + run stay under 900 s on a cold checkout, and a
# warm-tree run (build is a no-op) under 180 s.
BUILD_TIMEOUT_S = 360
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def on_sigterm(signum, frame):
    # subprocess.run kills and reaps its child when an exception unwinds
    # through it, so turning SIGTERM into one leaves no process behind.
    raise SystemExit(1)


def check_call(cmd):
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    except OSError as exc:
        fail(f"cannot run {cmd[0]}: {exc}")
    if done.returncode != 0:
        fail(f"exit code {done.returncode}: {' '.join(cmd)}")


def build():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", build_dir, "--target", "gred_perfbench",
                "-j", jobs])
    return os.path.join(build_dir, "gred_perfbench")


def child_env():
    # One pool thread and no stray GRED_* toggles: the numbers must not
    # depend on the host's core count or on the caller's environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GRED_")}
    env["GRED_THREADS"] = "1"
    return env


def check_result(result):
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        fail("result does not have exactly the keys "
             "correct, attempted, failed, metrics")
    if not isinstance(result["correct"], bool):
        fail("correct is not a boolean")
    for key in ("attempted", "failed"):
        value = result[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            fail(f"{key} is not a whole number")
    if result["attempted"] < 1:
        fail("nothing was attempted")
    if not isinstance(result["metrics"], dict) or not result["metrics"]:
        fail("no metrics")
    for name, metric in result["metrics"].items():
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
            fail(f"metric {name} does not have exactly value and unit")
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            fail(f"metric {name} is not a finite number")


def main():
    signal.signal(signal.SIGTERM, on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(
            out_dir, f"spans-{args.workload}-{args.seed}.jsonl")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        fail(f"last line is not JSON: {exc}")
    check_result(result)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
