#!/usr/bin/env python3
"""Checks the perf trajectory file, BENCH_e2e.json, record by record.

  python3 tools/check_bench_trajectory.py [BENCH_e2e.json]

The file holds one record per change that claimed an end-to-end gain:

  {"records": [{
     "parent": "<short sha the change was measured against>",
     "commit": "<short sha of the change, once it has one>",   (optional)
     "title": "...",
     "claim": "<what the change claimed, in words>",
     "claimed": {"workload": "<BENCHMARK.json workload>",
                 "metric": "<BENCHMARK.json end_to_end metric>"},
     "cpu_model": "<the machine both sides ran on>",
     "runs": [{"seed": 42, "pairs": 10,
               "medians": {"<workload>": {"<metric>":
                           {"parent": 1.37, "change": 0.96}}}}],
     "notes": "..."}]}                                         (optional)

A record is rejected when a field is missing or mistyped, when it names a
workload or metric BENCHMARK.json does not define, when no run holds the
claimed workload and metric, or when the claimed pair did not improve in
a run that holds it (its "better" direction comes from BENCHMARK.json): a
claim its own medians contradict. The script also drops each required
field from the first record in turn, and mirrors the first record's
claimed change median to the wrong side of its parent's, and confirms the
check rejects every copy, so a check that accepts anything cannot pass.
Exit status 1 on any problem.
"""

import copy
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REQUIRED = ("parent", "title", "claim", "claimed", "cpu_model", "runs")


def benchmark_names():
    """The workload names, and each end_to_end metric's better direction."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({w["name"] for w in spec["workloads"]},
            {m["name"]: m["better"] for m in spec["end_to_end"]})


def improved(pair, better):
    """Whether the change median beat the parent's in the better direction."""
    if better == "lower":
        return pair["change"] < pair["parent"]
    return pair["change"] > pair["parent"]


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_count(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 1


def record_problems(record, workloads, metrics):
    """Returns what is wrong with one record, as a list of strings."""
    if not isinstance(record, dict):
        return ["not an object"]
    problems = [f"missing {k}" for k in REQUIRED if k not in record]
    if problems:
        return problems
    for key in ("parent", "title", "claim", "cpu_model"):
        if not isinstance(record[key], str) or not record[key].strip():
            problems.append(f"{key} is not a non-empty string")
    claimed = record["claimed"]
    if (not isinstance(claimed, dict) or claimed.get("workload") not in
            workloads or claimed.get("metric") not in metrics):
        problems.append("claimed needs a BENCHMARK.json workload and metric")
        claimed = {}
    runs = record["runs"]
    if not isinstance(runs, list) or not runs:
        return problems + ["runs is not a non-empty list"]
    holds_claim = False
    for i, run in enumerate(runs):
        if not isinstance(run, dict):
            problems.append(f"run {i} is not an object")
            continue
        for key in ("seed", "pairs", "medians"):
            if key not in run:
                problems.append(f"run {i}: missing {key}")
        if "seed" in run and not (isinstance(run["seed"], int) and
                                  not isinstance(run["seed"], bool)):
            problems.append(f"run {i}: seed is not an integer")
        if "pairs" in run and not is_count(run["pairs"]):
            problems.append(f"run {i}: pairs is not a count >= 1")
        medians = run.get("medians")
        if not isinstance(medians, dict) or not medians:
            problems.append(f"run {i}: medians is not a non-empty object")
            continue
        for workload, by_metric in medians.items():
            if workload not in workloads:
                problems.append(f"run {i}: unknown workload {workload}")
                continue
            if not isinstance(by_metric, dict) or not by_metric:
                problems.append(f"run {i}: {workload} has no metrics")
                continue
            for metric, pair in by_metric.items():
                where = f"run {i}: {workload} {metric}"
                if metric not in metrics:
                    problems.append(f"{where}: unknown metric")
                elif not (isinstance(pair, dict) and
                          is_number(pair.get("parent")) and
                          is_number(pair.get("change"))):
                    problems.append(f"{where}: needs numeric parent and "
                                    "change medians")
                elif (workload == claimed.get("workload") and
                      metric == claimed.get("metric")):
                    holds_claim = True
                    if not improved(pair, metrics[metric]):
                        problems.append(
                            f"{where}: the claimed pair did not improve "
                            f"(parent {pair['parent']}, change "
                            f"{pair['change']}, {metrics[metric]} is "
                            "better)")
    if claimed and not holds_claim:
        problems.append("no run holds the claimed workload and metric")
    return problems


def flip_claimed_change(record):
    """A copy of `record` whose first claimed change median is mirrored
    around its parent's, so the claimed gain reads as an equal loss."""
    bad = copy.deepcopy(record)
    claimed = bad.get("claimed") or {}
    for run in bad.get("runs") or []:
        pair = ((run.get("medians") or {}).get(claimed.get("workload"))
                or {}).get(claimed.get("metric"))
        if isinstance(pair, dict) and "parent" in pair and "change" in pair:
            pair["change"] = 2 * pair["parent"] - pair["change"]
            return bad
    return None


def main():
    path = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        ROOT, "BENCH_e2e.json")
    with open(path) as f:
        doc = json.load(f)
    records = doc.get("records") if isinstance(doc, dict) else None
    if not isinstance(records, list) or not records:
        print(f"{path}: no records list")
        return 1
    workloads, metrics = benchmark_names()
    failed = False
    for i, record in enumerate(records):
        for problem in record_problems(record, workloads, metrics):
            print(f"{path}: record {i}: {problem}")
            failed = True
    # The check must reject a record missing any required field, and a
    # run missing any of its own.
    probe = records[0]
    damaged = []
    for key in REQUIRED:
        bad = copy.deepcopy(probe)
        bad.pop(key, None)
        damaged.append((key, bad))
    for key in ("seed", "pairs", "medians"):
        bad = copy.deepcopy(probe)
        if isinstance(bad.get("runs"), list) and bad["runs"]:
            bad["runs"][0].pop(key, None)
        damaged.append((f"runs[0].{key}", bad))
    for key, bad in damaged:
        if not record_problems(bad, workloads, metrics):
            print(f"self-test: a record without {key} was accepted")
            failed = True
    # ... and a record whose claimed pair moved the wrong way.
    flipped = flip_claimed_change(probe)
    if flipped is None:
        print("self-test: the first record holds no claimed pair to flip")
        failed = True
    elif not record_problems(flipped, workloads, metrics):
        print("self-test: a record whose claimed pair got worse was "
              "accepted")
        failed = True
    if not failed:
        print(f"{path}: {len(records)} records ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
