#!/usr/bin/env python3
"""Builds bench_e2e from source and runs one workload.

Run from the root of a checkout:

  python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench_e2e/run.py --smoke [--bin PATH]

The first form builds the library and the benchmark into $CARGO_TARGET_DIR
(default .bench_build), runs the workload and passes its output through.
The last line of the output is one JSON object with the keys correct,
attempted, failed and metrics; with --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 the per_layer ones.
Output that breaks this contract is not printed and the exit code is 1.

--smoke runs every workload of BENCHMARK.json shrunk to a fraction of a
second, traced and untraced, and checks that each run is correct and prints
exactly the metric names BENCHMARK.json lists.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "bench_e2e"],
    ]
    for step in steps:
        # The build log goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "bench_e2e")


def expected_metrics(trace):
    with open(BENCHMARK_JSON) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}, [
        w["name"] for w in spec["workloads"]
    ]


def validate(stdout, trace):
    """Returns the problem with a run's output, or None."""
    lines = stdout.strip().splitlines()
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        return f"last line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != {
        "correct", "attempted", "failed", "metrics"
    }:
        return "result keys are not correct/attempted/failed/metrics"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return f"{key} is not a whole number"
    if result["attempted"] < 1:
        return "nothing was attempted"
    units, _ = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != units:
        missing = sorted(set(units) - set(got))
        extra = sorted(set(got) - set(units))
        return f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}"
    for name, m in result["metrics"].items():
        if not isinstance(m.get("value"), (int, float)):
            return f"metric {name} has no numeric value"
    return None


def run(binary, args, trace):
    try:
        proc = subprocess.run(
            [binary] + args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
            text=True)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(args)}")
    if proc.returncode != 0:
        fail(f"bench_e2e exited with {proc.returncode}: {' '.join(args)}")
    problem = validate(proc.stdout, trace)
    if problem:
        fail(problem)
    return proc.stdout


def smoke(binary):
    _, workloads = expected_metrics(False)
    for workload in workloads:
        for trace in (0, 1):
            out = run(binary, [f"--workload={workload}", "--smoke",
                               f"--trace={trace}"], trace)
            result = json.loads(out.strip().splitlines()[-1])
            if not result["correct"] or result["failed"] != 0:
                fail(f"smoke {workload} trace={trace}: {out.strip()}")
            print(f"smoke {workload} trace={trace}: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="also write the Chrome trace here")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bin", help="use this bench_e2e instead of building")
    args = parser.parse_args()

    binary = args.bin or build()
    if args.smoke:
        smoke(binary)
        return
    if not args.workload:
        parser.error("--workload is required")
    command = [f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace_out:
        command.append(f"--trace-out={args.trace_out}")
    sys.stdout.write(run(binary, command, args.trace))


if __name__ == "__main__":
    main()
