# engine_jobs_identity: ext_shard_sweep and fig_pipeline fan their points
# out over par::WorkerPool into point-indexed slots, so their results must
# not depend on --jobs. Runs each at reduced size with --jobs=1 and
# --jobs=4 and requires the raw "metrics" objects of the two
# BENCH_<name>.json files to match byte for byte.
#
#   cmake -DBENCH_DIR=<dir with the bench binaries> -DOUT_DIR=<scratch dir>
#         -P engine_jobs_identity.cmake
foreach(var BENCH_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "engine_jobs_identity: -D${var}=... is required")
  endif()
endforeach()

function(metrics_of bench args jobs out_var)
  set(dir "${OUT_DIR}/jobs${jobs}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND "${BENCH_DIR}/${bench}" ${args} --jobs=${jobs} --out_dir=${dir}
    RESULT_VARIABLE rc OUTPUT_QUIET)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${bench} --jobs=${jobs} exited with ${rc}")
  endif()
  file(READ "${dir}/BENCH_${bench}.json" json)
  string(REGEX MATCH "\"metrics\": {[^}]*}" metrics "${json}")
  if(metrics STREQUAL "")
    message(FATAL_ERROR "${bench} --jobs=${jobs}: no metrics object")
  endif()
  set(${out_var} "${metrics}" PARENT_SCOPE)
endfunction()

foreach(case "ext_shard_sweep|--messages=4000"
             "fig_pipeline|--duration_sec=1")
  string(REPLACE "|" ";" parts "${case}")
  list(GET parts 0 bench)
  list(GET parts 1 args)
  metrics_of(${bench} "${args}" 1 serial)
  metrics_of(${bench} "${args}" 4 parallel)
  if(NOT serial STREQUAL parallel)
    message(FATAL_ERROR "${bench}: metrics differ between --jobs=1 and 4")
  endif()
  message(STATUS "${bench}: metrics identical for --jobs=1 and --jobs=4")
endforeach()
