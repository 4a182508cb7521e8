# Exit-code test of the bench harness, run by ctest as
#   cmake -DPARAMS=<bench_params> -DF2=<bench_f2_pdr_nodes>
#         -DWORK_DIR=<scratch dir> -P exit_code_test.cmake
# A bench that cannot write its CSV must exit 1; one that can must exit
# 0 and leave the CSV; an unknown flag must exit 1 before the sweep runs;
# a sweep whose journal cannot be opened must exit 1 with a message, not
# abort, and keep the banner it printed.

function(run_bench want)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL want)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "${args}: exit ${rc}, want ${want}\n${out}${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")

set(ENV{WMN_RESULTS_DIR} "/dev/null/x")
run_bench(1 "${PARAMS}")

set(ENV{WMN_RESULTS_DIR} "${WORK_DIR}")
run_bench(0 "${PARAMS}")
if(NOT EXISTS "${WORK_DIR}/t1_params.csv")
  message(FATAL_ERROR "bench_params exited 0 but wrote no t1_params.csv")
endif()

# Should the flag be ignored, keep the campaign that then runs short.
set(ENV{WMN_QUICK} 1)
set(ENV{WMN_REPS} 1)
run_bench(1 "${F2}" --resme)
if(EXISTS "${WORK_DIR}/JOURNAL_F2.jsonl")
  message(FATAL_ERROR "bench_f2_pdr_nodes --resme wrote a journal")
endif()

# The journal under an unwritable results directory cannot be opened.
set(ENV{WMN_RESULTS_DIR} "/dev/null/x")
run_bench(1 "${F2}")
if(NOT out MATCHES "=== F2:")
  message(FATAL_ERROR "bench_f2_pdr_nodes lost its banner:\n${out}${err}")
endif()
if(NOT err MATCHES "\\[wmn\\] F2: cannot open sweep journal")
  message(FATAL_ERROR "bench_f2_pdr_nodes gave no journal message:\n${err}")
endif()
