# Smoke test of the wmnsim_cli entry point, run by ctest as
#   cmake -DCLI=<path to wmnsim_cli> -P cli_smoke_test.cmake
# Every traffic model runs for 1 s of traffic, on random pairs and
# toward 3 gateways, and must exit 0; a malformed or out-of-range value
# or an unknown flag must exit 1; a run the event budget cuts short must exit 3.
# A run that offers no packet reports its PDR as n/a, not as total loss,
# and one that sends nothing inside a fault window its outage PDR.

function(run_cli want)
  execute_process(COMMAND "${CLI}" ${ARGN}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL want)
    list(JOIN ARGN " " args)
    message(FATAL_ERROR "wmnsim_cli ${args}: exit ${rc}, want ${want}\n${out}${err}")
  endif()
  set(out "${out}" PARENT_SCOPE)
  set(err "${err}" PARENT_SCOPE)
endfunction()

foreach(model cbr onoff heavytail sessions)
  foreach(pattern "" "--gateways;3")
    run_cli(0 --nodes 30 --area 600 600 --flows 4 --seconds 1
            --traffic ${model} ${pattern})
  endforeach()
endforeach()
run_cli(0 --nodes 20 --flows 0 --seconds 1)
if(NOT out MATCHES "pdr +\\| n/a \\(no packets sent\\)")
  message(FATAL_ERROR "wmnsim_cli --flows 0 did not report PDR as n/a:\n${out}")
endif()
# An outage that ends inside the warm-up sees no packet sent.
run_cli(0 --nodes 20 --outage 3 0.5 1.0 --seconds 1)
if(NOT out MATCHES "pdr_during_outage +\\| n/a \\(nothing sent in a fault window\\)")
  message(FATAL_ERROR "wmnsim_cli --outage in the warm-up did not report "
                      "the outage PDR as n/a:\n${out}")
endif()
run_cli(1 --nodes abc)
run_cli(1 --deadline 5)
# Values that parse but make no run: each must be refused, not run
# empty, ignored or left to an invariant check.
run_cli(1 --seconds -2)
run_cli(1 --area -100 100)
run_cli(1 --rate -1)
run_cli(1 --session-rate -1)
run_cli(1 --users 0)
run_cli(1 --gateways 0)
run_cli(1 --speed -1)
run_cli(1 --churn -1)
run_cli(1 --arrival-gap -1)
run_cli(1 --nodes 20 --outage 50 1 2)
run_cli(1 --outage 3 5 1)
run_cli(3 --nodes 30 --seconds 2 --event-budget 5000)
if(NOT err MATCHES "\\[aborted: event_budget_exhausted\\]")
  message(FATAL_ERROR "wmnsim_cli --event-budget gave no abort reason:\n${err}")
endif()
