# Exit-code test of the bench harness, run by ctest as
#   cmake -DPARAMS=<bench_params> -DF2=<bench_f2_pdr_nodes>
#         -DWORK_DIR=<scratch dir> -P exit_code_test.cmake
# A bench that cannot write its CSV must exit 1; one that can must exit
# 0 and leave the CSV; any argument must exit 1 before the sweep runs;
# a sweep whose per-slot record cannot be opened must exit 1 with a
# message, not abort, and keep the banner it printed. Last, F2 runs on 1
# and then 4 worker threads into one directory: both CSVs must be
# byte-identical, and the record must hold exactly the second run's 16
# clean slots.

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

# A bench takes no arguments. Should one be ignored, keep the campaign
# that then runs short.
set(ENV{WMN_QUICK} 1)
set(ENV{WMN_REPS} 1)
run_bench(1 "${F2}" --resume)
if(EXISTS "${WORK_DIR}/JOURNAL_F2.jsonl")
  message(FATAL_ERROR "bench_f2_pdr_nodes --resume wrote a record")
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

# The thread count is invisible in the results, and a rerun replaces the
# record rather than appending to it.
set(ENV{WMN_RESULTS_DIR} "${WORK_DIR}")
set(ENV{WMN_THREADS} 1)
run_bench(0 "${F2}")
file(READ "${WORK_DIR}/f2_pdr_nodes.csv" csv_serial)
set(ENV{WMN_THREADS} 4)
run_bench(0 "${F2}")
file(READ "${WORK_DIR}/f2_pdr_nodes.csv" csv_pooled)
if(NOT csv_serial STREQUAL csv_pooled)
  message(FATAL_ERROR "f2_pdr_nodes.csv differs between 1 and 4 threads:\n"
                      "${csv_serial}\n---\n${csv_pooled}")
endif()
file(STRINGS "${WORK_DIR}/JOURNAL_F2.jsonl" records)
list(LENGTH records n_records)
if(NOT n_records EQUAL 16)
  message(FATAL_ERROR "JOURNAL_F2.jsonl holds ${n_records} lines, want 16")
endif()
