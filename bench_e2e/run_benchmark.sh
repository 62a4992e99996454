#!/usr/bin/env bash
# Builds bench_e2e, runs every workload of BENCHMARK.json for R rounds at
# each seed (workload order reversed every other round), then one traced
# pass per workload and seed whose trace `autoem_cli trace-analyze` reads,
# and summarizes. Run from the root of a checkout:
#
#   bench_e2e/run_benchmark.sh [-r ROUNDS] [-s "SEED ..."] [-t SECONDS]
#                              [-o DIR] [-b BASELINE_DIR]
#
# Defaults: 3 rounds; seeds "42 7" (the default and the held-out seed);
# BENCHMARK.json's run_seconds; results in $CARGO_TARGET_DIR/results
# (default .bench_build/results). With -b, medians are also compared with
# an earlier results directory. The exit status is non-zero when a run or
# any check fails.
set -euo pipefail

rounds=3
seeds="42 7"
seconds=""
out=""
baseline=""
while getopts "r:s:t:o:b:" opt; do
  case "$opt" in
    r) rounds="$OPTARG" ;;
    s) seeds="$OPTARG" ;;
    t) seconds="$OPTARG" ;;
    o) out="$OPTARG" ;;
    b) baseline="$OPTARG" ;;
    *) sed -n '2,16p' "$0" >&2; exit 2 ;;
  esac
done

spec() { python3 -c "import json; s = json.load(open('BENCHMARK.json')); print($1)"; }
build="${CARGO_TARGET_DIR:-.bench_build}"
out="${out:-$build/results}"
seconds="${seconds:-$(spec 's["run_seconds"]')}"
workloads="$(spec '" ".join(w["name"] for w in s["workloads"])')"
reversed="$(echo "$workloads" | tr ' ' '\n' | tac | tr '\n' ' ')"

cmake -S bench_e2e -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" -j "$(nproc)" --target bench_e2e autoem_cli >&2
rm -rf "$out"
mkdir -p "$out"

run() {  # workload seed trace output [extra run.py flags]
  python3 bench_e2e/run.py --bin "$build/bench_e2e" --workload "$1" \
    --seed "$2" --seconds "$seconds" --trace "$3" "${@:5}" > "$4"
}

for seed in $seeds; do
  for ((round = 1; round <= rounds; round++)); do
    order="$workloads"
    if ((round % 2 == 0)); then order="$reversed"; fi
    for w in $order; do
      echo "seed $seed round $round: $w" >&2
      run "$w" "$seed" 0 "$out/$w.$seed.$round.out"
    done
  done
  for w in $workloads; do
    echo "seed $seed traced: $w" >&2
    run "$w" "$seed" 1 "$out/$w.$seed.traced.out" \
      --trace-out "$out/$w.$seed.trace.json"
    "$build/autoem_cli" trace-analyze --trace "$out/$w.$seed.trace.json" \
      > "$out/$w.$seed.analysis.txt"
  done
done

python3 bench_e2e/summarize.py "$out" ${baseline:+--baseline "$baseline"}
