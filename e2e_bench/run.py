#!/usr/bin/env python3
"""End-to-end benchmark of AEVA: builds the benchmark binary from the
repository's sources, then runs one workload (README.md in this directory).

  python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 e2e_bench/run.py --self-test

Run from the repository root. The build goes to .bench_build/e2e_bench.
The last line of standard output is the benchmark's JSON result; build
output goes to standard error. Exits non-zero, without a result line,
when the sources are missing or the build fails.
"""

import argparse
import fcntl
import json
import math
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2e_bench")
BINARY = os.path.join(BUILD_DIR, "aeva_e2e_bench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"e2e_bench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the binary; a lock serializes builds."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no AEVA sources under {ROOT}/src")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "aeva_e2e_bench", "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if done.returncode != 0:
                fail(f"build step failed: {' '.join(step)}")


def run_binary(args, capture=False):
    try:
        return subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S,
                              capture_output=capture, text=True, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def check_small_run(workload, trace, metrics):
    """Runs one workload at reduced size; returns the problems found."""
    done = run_binary(["--workload", workload, "--seed", "7", "--seconds",
                       "0.3", "--trace", trace, "--small"], capture=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return [f"exit {done.returncode}\n{done.stderr}"]
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return [f"result keys {sorted(result)}"]
    problems = []
    if result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted="
                        f"{result['attempted']} failed={result['failed']}")
    expected = {m["name"]: m["unit"] for m in metrics}
    printed = result["metrics"]
    if set(printed) != set(expected):
        problems.append(f"missing {sorted(set(expected) - set(printed))}, "
                        f"extra {sorted(set(printed) - set(expected))}")
    for metric in sorted(set(printed) & set(expected)):
        unit, value = printed[metric].get("unit"), printed[metric].get("value")
        if unit != expected[metric]:
            problems.append(f"{metric}: unit {unit} != {expected[metric]}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{metric}: value {value!r}")
        elif trace == "0" and value == 0:
            problems.append(f"{metric}: an end-to-end metric is 0")
    return problems


def self_test():
    """Reduced-size run of every workload in both modes: every metric of
    BENCHMARK.json is printed with its unit and a finite value, every
    output check passes, and the checks are armed (a planted mismatch in
    the comparison helpers must fail)."""
    spec = load_spec()
    problems = []
    check = run_binary(["--self-check"], capture=True)
    if check.returncode != 0:
        problems.append("--self-check: planted mismatches were not caught:\n"
                        + check.stderr)
    unknown = run_binary(["--workload", "no_such_workload"], capture=True)
    if unknown.returncode == 0 or unknown.stdout.strip():
        problems.append("an unknown workload must fail without a result")
    for workload in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            name = f"{workload['name']} --trace {trace}"
            found = check_small_run(workload["name"], trace, spec[key])
            print(f"self-test: {name}: {'ok' if not found else 'FAILED'}",
                  file=sys.stderr)
            problems += [f"{name}: {problem}" for problem in found]
    for problem in problems:
        print(f"self-test FAILED: {problem}", file=sys.stderr)
    print("self-test: " + ("ok" if not problems else "FAILED"))
    return 0 if not problems else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload or --self-test is required")
    build()
    if args.self_test:
        return self_test()
    done = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", args.trace])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
