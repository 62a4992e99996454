# ctest: the benches read the obs flags' numbers (`--profile-hz=` 1..10000,
# `--metrics-flush-interval=` 0..1e9) before any work, and a malformed value
# exits 2 naming the flag, from both flag readers: BenchArgs::Parse (the
# paper-figure benches) and RunGBenchMain (the google-benchmark ones).
#
# Variables: TABLE4 (bench_table4_end_to_end), GBENCH (bench_forest_fit).

foreach(case IN ITEMS
    "TABLE4|--profile-hz=abc" "TABLE4|--profile-hz=1e-300"
    "TABLE4|--metrics-flush-interval=-1" "GBENCH|--profile-hz=97Hz"
    "GBENCH|--profile-hz=20000" "GBENCH|--metrics-flush-interval=nan")
  string(REPLACE "|" ";" args "${case}")
  list(GET args 0 bench)
  list(GET args 1 arg)
  string(REGEX REPLACE "=.*" "" flag "${arg}")
  # Should the check fail, these keep the bench from running any work.
  execute_process(COMMAND "${${bench}}" "${arg}" --datasets=none
                          --benchmark_filter=^$
                  RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${flag}:" at)
  if(NOT result EQUAL 2 OR at EQUAL -1)
    message(SEND_ERROR "${bench} ${arg}: exit ${result}, want 2 and a "
                       "message naming ${flag}; stderr: ${err}")
  endif()
endforeach()
