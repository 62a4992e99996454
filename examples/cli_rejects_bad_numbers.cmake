# ctest: autoem_cli reads its numeric flags before any work, and a value
# that is malformed, not finite or out of range exits 2 naming the flag.
# So does an obs flag value obs::ParseObsFlag rejects, in the `--key=value`
# and the `--key value` form. `--threads 0` (all hardware threads) stays
# valid.
#
# Variables: CLI (the autoem_cli binary).

foreach(case IN ITEMS
    "match|--threshold=abc" "match|--threshold=1.5" "predict|--threshold=-0.1"
    "train-eval|--evals=0" "train-eval|--evals=3.5" "train-eval|--seed=-1"
    "predict|--threads=abc" "predict|--threads=1025" "predict|--chunk-size=0"
    "train-eval|--max-trial-seconds=nan" "train-eval|--checkpoint-every=5x"
    "report|--metrics-flush-interval=inf" "report|--profile-hz="
    "report|--metrics-format=json" "train-eval|--log-level|verbose")
  string(REPLACE "|" ";" args "${case}")
  list(GET args 1 flag)
  string(REGEX REPLACE "=.*" "" flag "${flag}")
  execute_process(COMMAND "${CLI}" ${args}
                  RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE err)
  string(FIND "${err}" "${flag}:" at)
  if(NOT result EQUAL 2 OR at EQUAL -1)
    message(SEND_ERROR "autoem_cli ${args}: exit ${result}, want 2 and a "
                       "message naming ${flag}; stderr: ${err}")
  endif()
endforeach()

# A valid value passes the flag check and fails later for the missing model.
execute_process(COMMAND "${CLI}" predict --threads 0
                RESULT_VARIABLE result OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT result EQUAL 1 OR NOT err MATCHES "requires --load-model")
  message(SEND_ERROR "autoem_cli predict --threads 0: exit ${result}; "
                     "stderr: ${err}")
endif()
