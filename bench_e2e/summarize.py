#!/usr/bin/env python3
"""Summarizes a results directory written by run_benchmark.sh.

  python3 bench_e2e/summarize.py RESULTS_DIR [--baseline EARLIER_RESULTS_DIR]

RESULTS_DIR holds <workload>.<seed>.<round>.out for untraced runs and
<workload>.<seed>.traced.out for traced ones, each the stdout of run.py.

Prints, for every workload and end-to-end metric, the median and quartiles
over all untraced runs and their spread, (Q3 - Q1) / median, against the
metric's bound in BENCHMARK.json; the same per seed; the F1 of each seed's
first round; and the per-layer metrics of the traced runs. Checks that
every run is correct with no failed operation, that each round of a seed
gives the same answer digest in every run, traced or not, and that no
spread but setup_s's exceeds its bound. With --baseline, also checks that
no median is worse than the baseline's by more than the bound. Exits 1 if
a check fails.
"""

import argparse
import glob
import json
import os
import re
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"^(?P<workload>.+)\.(?P<seed>\d+)\.(?P<run>\d+|traced)\.out$")
ROUND = re.compile(r"\bround=(\d+) .*\bf1=(\S+) digest=([0-9a-f]+)")


class Checks:
    def __init__(self):
        self.failed = 0

    def expect(self, ok, message):
        if not ok:
            self.failed += 1
            print(f"CHECK FAILED: {message}")


def load(results_dir):
    """{(workload, seed): {"runs": [...], "traced": run or None}}."""
    runs = defaultdict(lambda: {"runs": [], "traced": None})
    for path in sorted(glob.glob(os.path.join(results_dir, "*.out"))):
        match = NAME.match(os.path.basename(path))
        if not match:
            continue
        with open(path) as f:
            lines = f.read().strip().splitlines()
        rounds = {int(m[1]): (float(m[2]), m[3])
                  for m in map(ROUND.search, lines) if m}
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = None
        run = {"path": path, "rounds": rounds, "result": result}
        key = (match["workload"], int(match["seed"]))
        if match["run"] == "traced":
            runs[key]["traced"] = run
        else:
            runs[key]["runs"].append(run)
    return runs


def stats(values):
    q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                      else (values[0],) * 3)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def values_of(runs, metric):
    return [r["result"]["metrics"][metric]["value"] for r in runs
            if r["result"] and metric in r["result"]["metrics"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("results")
    parser.add_argument("--baseline")
    args = parser.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = spec["end_to_end"]
    runs = load(args.results)
    checks = Checks()
    checks.expect(bool(runs), f"no results in {args.results}")

    # Correctness and answer digests.
    f1s = defaultdict(list)  # per workload, one per (seed, round) dataset
    for (workload, seed), group in sorted(runs.items()):
        every = group["runs"] + ([group["traced"]] if group["traced"] else [])
        for run in every:
            result = run["result"]
            checks.expect(result is not None and result["correct"]
                          and result["failed"] == 0,
                          f"{run['path']}: not correct or operations failed")
            checks.expect(bool(run["rounds"]),
                          f"{run['path']}: no round printed its answer")
        answers = defaultdict(set)
        for run in every:
            for number, answer in run["rounds"].items():
                answers[number].add(answer)
        for number, seen in sorted(answers.items()):
            checks.expect(len(seen) == 1,
                          f"{workload} seed {seed} round {number}: answers "
                          f"differ across runs: {sorted(seen)}")
        f1s[workload].extend(min(seen)[0] for seen in answers.values())
        first = sorted(answers.get(0, {(0.0, "none")}))[0]
        print(f"{workload:14} seed {seed:<6} runs {len(group['runs'])} "
              f"traced {'yes' if group['traced'] else 'no'} "
              f"rounds {len(answers)} round-0 f1 {first[0]:.4f} "
              f"digest {first[1]}")

    for workload, values in sorted(f1s.items()):
        median, q1, q3, spread = stats(values)
        print(f"{workload:14} f1 over {len(values)} dataset(s): median "
              f"{median:.4f}, quartiles {q1:.4f} {q3:.4f}, spread {spread:.1%}")

    # End-to-end metrics, over all untraced runs of a workload and per seed.
    by_workload = defaultdict(list)
    for (workload, _), group in runs.items():
        by_workload[workload].extend(group["runs"])
    print(f"\n{'workload':14} {'metric':12} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}  n")
    medians = {}
    for workload in sorted(by_workload):
        for metric in end_to_end:
            name = metric["name"]
            values = values_of(by_workload[workload], name)
            checks.expect(len(values) == len(by_workload[workload]),
                          f"{workload}: {name} missing from some runs")
            if not values:
                continue
            median, q1, q3, spread = stats(values)
            medians[(workload, name)] = median
            verdict = "ok" if spread <= metric["bound"] / 3 else (
                "wide" if spread <= metric["bound"] else "TOO WIDE")
            print(f"{workload:14} {name:12} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:7.2%} {metric['bound']:6.0%}  "
                  f"{len(values)} {verdict}")
            if name != "setup_s":
                checks.expect(spread <= metric["bound"],
                              f"{workload}: {name} spread {spread:.2%} "
                              f"exceeds its bound {metric['bound']:.0%}")
    for (workload, seed), group in sorted(runs.items()):
        if len(group["runs"]) < 2:
            continue
        cells = []
        for metric in end_to_end:
            values = values_of(group["runs"], metric["name"])
            if values:
                median, _, _, spread = stats(values)
                cells.append(f"{metric['name']} {median:.6g} ({spread:.1%})")
        print(f"{workload:14} seed {seed:<6} " + "  ".join(cells))

    # Per-layer metrics of the traced runs.
    print()
    for (workload, seed), group in sorted(runs.items()):
        if group["traced"] and group["traced"]["result"]:
            metrics = group["traced"]["result"]["metrics"]
            print(f"{workload} seed {seed} traced: " + ", ".join(
                f"{name} {m['value']:.4g}" for name, m in metrics.items()))

    if args.baseline:
        base = defaultdict(list)
        for (workload, _), group in load(args.baseline).items():
            base[workload].extend(group["runs"])
        print(f"\n{'workload':14} {'metric':12} {'baseline':>12} "
              f"{'median':>12} {'worse by':>9} {'bound':>6}")
        for (workload, name), median in sorted(medians.items()):
            metric = next(m for m in end_to_end if m["name"] == name)
            values = values_of(base[workload], name)
            if not values:
                checks.expect(False, f"{workload}: {name} not in baseline")
                continue
            before = statistics.median(values)
            sign = 1 if metric["better"] == "lower" else -1
            worse = sign * (median - before) / before
            print(f"{workload:14} {name:12} {before:12.6g} {median:12.6g} "
                  f"{worse:9.2%} {metric['bound']:6.0%}")
            checks.expect(worse <= metric["bound"],
                          f"{workload}: {name} median is {worse:.2%} worse "
                          f"than the baseline's")

    print(f"\n{checks.failed} check(s) failed" if checks.failed
          else "\nall checks passed")
    sys.exit(1 if checks.failed else 0)


if __name__ == "__main__":
    main()
