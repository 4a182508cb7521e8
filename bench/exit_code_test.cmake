# Exit-code test of the bench harness, run by ctest as
#   cmake -DPARAMS=<bench_params> -DCATALOGUE=<bench_catalogue>
#         -DWORK_DIR=<scratch dir> -P exit_code_test.cmake
# A bench that cannot write its CSV must exit 1; one that can must exit
# 0 and leave the CSV; an argument that names no figure must exit 1
# before the sweep runs; a sweep whose per-slot record cannot be opened
# must exit 1 with a message, not abort, and keep the banner it printed.
# Then F2 runs on 1 and then 4 worker threads into one directory: both
# CSVs must be byte-identical, and the record must hold exactly the
# second run's 16 clean slots. F2 with F6, which shares F2's cells, must
# write the same F2 CSV from the same 16 slots.

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

function(expect_records want)
  file(STRINGS "${WORK_DIR}/JOURNAL_catalogue.jsonl" records)
  list(LENGTH records n_records)
  if(NOT n_records EQUAL want)
    message(FATAL_ERROR "JOURNAL_catalogue.jsonl holds ${n_records} lines, "
                        "want ${want}")
  endif()
endfunction()

file(REMOVE_RECURSE "${WORK_DIR}")

set(ENV{WMN_RESULTS_DIR} "/dev/null/x")
run_bench(1 "${PARAMS}")

set(ENV{WMN_RESULTS_DIR} "${WORK_DIR}")
run_bench(0 "${PARAMS}")
if(NOT EXISTS "${WORK_DIR}/t1_params.csv")
  message(FATAL_ERROR "bench_params exited 0 but wrote no t1_params.csv")
endif()

# An argument that names no figure. Should it be ignored, keep the
# campaign that then runs short.
set(ENV{WMN_QUICK} 1)
set(ENV{WMN_REPS} 1)
run_bench(1 "${CATALOGUE}" F2 --resume)
if(EXISTS "${WORK_DIR}/JOURNAL_catalogue.jsonl")
  message(FATAL_ERROR "bench_catalogue --resume wrote a record")
endif()
if(NOT err MATCHES "unknown figure '--resume'")
  message(FATAL_ERROR "bench_catalogue --resume gave no message:\n${err}")
endif()

# The journal under an unwritable results directory cannot be opened.
set(ENV{WMN_RESULTS_DIR} "/dev/null/x")
run_bench(1 "${CATALOGUE}" F2)
if(NOT out MATCHES "=== catalogue: F2 ===")
  message(FATAL_ERROR "bench_catalogue lost its banner:\n${out}${err}")
endif()
if(NOT err MATCHES "\\[wmn\\] catalogue: cannot open sweep journal")
  message(FATAL_ERROR "bench_catalogue gave no journal message:\n${err}")
endif()

# The thread count is invisible in the results, and a rerun replaces the
# record rather than appending to it.
set(ENV{WMN_RESULTS_DIR} "${WORK_DIR}")
set(ENV{WMN_THREADS} 1)
run_bench(0 "${CATALOGUE}" F2)
file(READ "${WORK_DIR}/f2_pdr_nodes.csv" csv_serial)
set(ENV{WMN_THREADS} 4)
run_bench(0 "${CATALOGUE}" F2)
file(READ "${WORK_DIR}/f2_pdr_nodes.csv" csv_pooled)
if(NOT csv_serial STREQUAL csv_pooled)
  message(FATAL_ERROR "f2_pdr_nodes.csv differs between 1 and 4 threads:\n"
                      "${csv_serial}\n---\n${csv_pooled}")
endif()
expect_records(16)

# F6 views F2's cells: no slot is added and F2's table does not move.
run_bench(0 "${CATALOGUE}" F2 F6)
file(READ "${WORK_DIR}/f2_pdr_nodes.csv" csv_with_f6)
if(NOT csv_serial STREQUAL csv_with_f6)
  message(FATAL_ERROR "f2_pdr_nodes.csv differs when F6 runs with F2:\n"
                      "${csv_serial}\n---\n${csv_with_f6}")
endif()
expect_records(16)

# A CSV that cannot be written: its path is a directory.
file(REMOVE "${WORK_DIR}/f2_pdr_nodes.csv")
file(MAKE_DIRECTORY "${WORK_DIR}/f2_pdr_nodes.csv")
run_bench(1 "${CATALOGUE}" F2)
if(NOT err MATCHES "cannot write csv")
  message(FATAL_ERROR "bench_catalogue gave no csv message:\n${err}")
endif()
