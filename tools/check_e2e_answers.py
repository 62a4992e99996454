#!/usr/bin/env python3
"""Checks bench_e2e's answers against bench/baselines/e2e_answers.json.

Run from the root of a checkout, after building bench_e2e (for example with
`python3 bench_e2e/run.py --smoke`, which builds into .bench_build):

  python3 tools/check_e2e_answers.py --bin .bench_build/bench_e2e [--update]

For every workload of BENCHMARK.json at seeds 42 and 7 it runs the binary
twice: shrunk (--smoke) and full-size with --seconds=0.001, which one round
fits. Each run must exit 0, report correct and no failures, and print the
pinned F1 and digest on its round-0 line. A change that moves an answer on
purpose updates the file in the same commit: --update rewrites it from the
runs. Exit status 1 on any mismatch.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ANSWERS = os.path.join(ROOT, "bench", "baselines", "e2e_answers.json")
SEEDS = (42, 7)
MODES = {"smoke": ["--smoke"], "full": ["--seconds=0.001"]}
ROUND0 = re.compile(r"^# bench_e2e .* round=0 f1=(\S+) digest=([0-9a-f]+)",
                    re.M)


def workloads():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [w["name"] for w in json.load(f)["workloads"]]


def run(binary, workload, seed, mode):
    """Returns (f1, digest) of round 0, or a string saying what went wrong."""
    proc = subprocess.run(
        [binary, f"--workload={workload}", f"--seed={seed}"] + MODES[mode],
        stdout=subprocess.PIPE, text=True, timeout=300)
    if proc.returncode != 0:
        return f"exited with {proc.returncode}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"] != 0:
        return f"not correct: {proc.stdout.strip().splitlines()[-1]}"
    match = ROUND0.search(proc.stdout)
    if not match:
        return "no round-0 line"
    return match.group(1), match.group(2)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--bin", required=True, help="bench_e2e binary")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the answers file from these runs")
    args = parser.parse_args()

    with open(ANSWERS) as f:
        pinned = json.load(f)
    expected = {(a["workload"], a["seed"], a["mode"]): (a["f1"], a["digest"])
                for a in pinned["answers"]}
    measured = []
    failures = 0
    for workload in workloads():
        for seed in SEEDS:
            for mode in MODES:
                got = run(args.bin, workload, seed, mode)
                want = expected.get((workload, seed, mode))
                if isinstance(got, str):
                    verdict = got
                elif args.update or got == want:
                    verdict = "ok"
                    measured.append({"workload": workload, "seed": seed,
                                     "mode": mode, "f1": got[0],
                                     "digest": got[1]})
                else:
                    verdict = f"pinned {want}, got {got}"
                failures += verdict != "ok"
                print(f"{workload} seed={seed} {mode}: {verdict}")

    if failures:
        print(f"{failures} answer(s) differ from {ANSWERS}")
        return 1
    if args.update:
        # One answer per line, so a changed answer is a one-line diff.
        rows = ",\n".join("  " + json.dumps(a) for a in measured)
        with open(ANSWERS, "w") as f:
            f.write(f'{{"recorded_on": {json.dumps(pinned["recorded_on"])},\n'
                    f' "answers": [\n{rows}\n]}}\n')
        print(f"wrote {len(measured)} answers to {ANSWERS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
