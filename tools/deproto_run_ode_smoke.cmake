# ODE-source smoke: "write the equations, get the protocol" through
# `deproto-run --ode`. The README system, run for 20 periods from a file
# and again from stdin, must write a --json artifact with the pinned
# digest (the trajectory x = 500, 162, 18, 0, ...); a system synthesis
# rejects must exit 1 with its taxonomy printed before the error.
#
#   cmake -DDEPROTO_RUN=<path/to/deproto-run> -P tools/deproto_run_ode_smoke.cmake
#
# Inputs and outputs live next to the binary under test (the build tree,
# never the source checkout) and are recreated on every invocation.

if(NOT DEFINED DEPROTO_RUN)
  message(FATAL_ERROR "pass -DDEPROTO_RUN=<path to deproto-run>")
endif()

get_filename_component(bin_dir "${DEPROTO_RUN}" DIRECTORY)
set(work "${bin_dir}/ode-smoke")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")

# SHA-256 of the --json ExperimentResult: default spec (sync, N 1000,
# seed 1) with --periods 20.
set(expected c1022102432fbe936d2e8947afb8fff61709440b5ced62eb115cbb92a2b88a77)

file(WRITE "${work}/epidemic.ode" "x' = -x*y\ny' = x*y\n")
execute_process(
  COMMAND "${DEPROTO_RUN}" --ode "${work}/epidemic.ode" --periods 20
          --json "${work}/file.json"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--ode <file> failed (exit ${rc}):\n${out}")
endif()
execute_process(
  COMMAND "${DEPROTO_RUN}" --ode - --periods 20 --json "${work}/stdin.json"
  INPUT_FILE "${work}/epidemic.ode"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--ode - failed (exit ${rc}):\n${out}")
endif()
foreach(pass file stdin)
  file(SHA256 "${work}/${pass}.json" digest)
  if(NOT digest STREQUAL expected)
    message(FATAL_ERROR
      "--ode (${pass}) --json digest ${digest}, expected ${expected}")
  endif()
endforeach()

# Not complete (the right-hand sides do not sum to zero): synthesis
# rejects it, but only after the taxonomy stage has reported why. One
# variable for both pipes keeps stdout and stderr in the order written.
file(WRITE "${work}/incomplete.ode" "x' = x*y\ny' = x*y\n")
execute_process(
  COMMAND "${DEPROTO_RUN}" --ode "${work}/incomplete.ode"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out)
string(FIND "${out}" "taxonomy: complete=no" taxonomy_at)
string(FIND "${out}" "synthesis error:" error_at)
if(NOT rc EQUAL 1 OR taxonomy_at EQUAL -1 OR error_at EQUAL -1 OR
   NOT taxonomy_at LESS error_at)
  message(FATAL_ERROR
    "incomplete system: expected exit 1 with the taxonomy before the "
    "synthesis error, got exit ${rc}:\n${out}")
endif()

message(STATUS "ode smoke: --ode file and stdin match the pinned digest")
