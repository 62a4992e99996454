# ctest: the benches read their flags' values before any work — the obs
# flags (`--profile-hz=` 1..10000, `--metrics-flush-interval=` 0..1e9, a
# known `--log-level=`, `--metrics-format=` jsonl or openmetrics) and the
# bench numbers (`--scale=` > 0, `--evals=` >= 1, `--threads=` 0..1024) —
# and a bad value exits 2 naming the flag, from every flag reader:
# BenchArgs::Parse (the paper-figure benches), RunGBenchMain (the
# google-benchmark ones) and bench_compare (`--noise=`, `--min-seconds=`
# finite and >= 0).
#
# Variables: TABLE4 (bench_table4_end_to_end), GBENCH (bench_forest_fit),
# COMPARE (bench_compare).

foreach(case IN ITEMS
    "TABLE4|--profile-hz=abc" "TABLE4|--profile-hz=1e-300"
    "TABLE4|--metrics-flush-interval=-1" "GBENCH|--profile-hz=97Hz"
    "GBENCH|--profile-hz=20000" "GBENCH|--metrics-flush-interval=nan"
    "TABLE4|--metrics-format=xml" "GBENCH|--log-level=verbose"
    "TABLE4|--scale=abc" "TABLE4|--evals=0" "TABLE4|--threads=1025"
    "COMPARE|--noise=abc" "COMPARE|--min-seconds=-1")
  string(REPLACE "|" ";" args "${case}")
  list(GET args 0 bench)
  list(GET args 1 arg)
  string(REGEX REPLACE "=.*" "" flag "${arg}")
  # Should the check fail, these keep the bench from running any work
  # (bench_compare stops at its usage line).
  execute_process(COMMAND "${${bench}}" "${arg}" --datasets=none
                          --benchmark_filter=^$
                  RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${flag}:" at)
  if(NOT result EQUAL 2 OR at EQUAL -1)
    message(SEND_ERROR "${bench} ${arg}: exit ${result}, want 2 and a "
                       "message naming ${flag}; stderr: ${err}")
  endif()
endforeach()
