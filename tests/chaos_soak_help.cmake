# chaos_soak_help: `chaos_soak --help` (and `--help=1`) must print the
# scenario list and exit 0 without running the sweep — in particular it
# must not write BENCH_chaos_soak.json into the working directory.
#
#   cmake -DSOAK=<path to chaos_soak> -DOUT_DIR=<scratch dir>
#         -P chaos_soak_help.cmake
foreach(var SOAK OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "chaos_soak_help: -D${var}=... is required")
  endif()
endforeach()

foreach(arg "--help" "--help=1")
  file(REMOVE_RECURSE "${OUT_DIR}")
  file(MAKE_DIRECTORY "${OUT_DIR}")
  execute_process(
    COMMAND "${SOAK}" ${arg}
    WORKING_DIRECTORY "${OUT_DIR}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "chaos_soak ${arg} exited with ${rc}\n${out}${err}")
  endif()
  foreach(scenario "tcp-slow" "dns-heal" "fleet" "clocks")
    string(FIND "${out}" "  ${scenario} " at)
    if(at EQUAL -1)
      message(FATAL_ERROR
              "chaos_soak ${arg}: scenario '${scenario}' missing from\n${out}")
    endif()
  endforeach()
  if(EXISTS "${OUT_DIR}/BENCH_chaos_soak.json")
    message(FATAL_ERROR "chaos_soak ${arg} ran the sweep (wrote "
                        "BENCH_chaos_soak.json)")
  endif()
  message(STATUS "chaos_soak ${arg}: scenario list printed, no sweep run")
endforeach()
