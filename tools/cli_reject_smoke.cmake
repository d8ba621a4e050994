# Flag-rejection smoke: a malformed value, or a flag given in a mode that
# would ignore it, must fail closed -- exit 2 with an `error:` line naming
# the flag -- before any work starts; --help and -h exit 0 instead.
# Every call has a timeout, so a value that wraps into a huge size (and
# used to hang) fails the test instead of stalling it. A failed artifact write must exit 1 with an error line.
#
#   cmake -DDEPROTO_RUN=<path/to/deproto-run>
#         -DDEPROTO_LINT=<path/to/deproto-lint> -P tools/cli_reject_smoke.cmake

if(NOT DEFINED DEPROTO_RUN OR NOT DEFINED DEPROTO_LINT)
  message(FATAL_ERROR
    "pass -DDEPROTO_RUN=<path to deproto-run> "
    "-DDEPROTO_LINT=<path to deproto-lint>")
endif()

# expect_reject(<tool> <flag> <args>...): `tool args` exits 2 and names
# `flag` on an error line.
function(expect_reject tool flag)
  execute_process(
    COMMAND "${tool}" ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(NOT rc STREQUAL "2" OR NOT err MATCHES "error:[^\n]*${flag}")
    list(JOIN ARGN " " args)
    message(FATAL_ERROR
      "${tool} ${args}: expected exit 2 and an error naming ${flag}, "
      "got exit '${rc}':\n${err}")
  endif()
endfunction()

expect_reject("${DEPROTO_LINT}" --exact-n epidemic --exact-n -1)
expect_reject("${DEPROTO_LINT}" --exact-n
              epidemic --exact-n 99999999999999999999)
expect_reject("${DEPROTO_LINT}" --exact-max-states
              epidemic --exact-max-states 0)
expect_reject("${DEPROTO_RUN}" --n epidemic --n 12x)
expect_reject("${DEPROTO_RUN}" --threads epidemic --threads 2)
# The retired multi-process executor's flags are unknown, not ignored.
expect_reject("${DEPROTO_RUN}" --dispatch
              --sweep smoke-epidemic-scaling --dispatch 2)
expect_reject("${DEPROTO_RUN}" --worker --worker)
expect_reject("${DEPROTO_RUN}" --ode
              --ode system.ode --sweep smoke-epidemic-scaling)

# --help and -h print the usage line on stdout and exit 0.
foreach(tool IN ITEMS "${DEPROTO_RUN}" "${DEPROTO_LINT}")
  foreach(flag IN ITEMS --help -h)
    execute_process(
      COMMAND "${tool}" ${flag}
      RESULT_VARIABLE rc
      OUTPUT_VARIABLE out
      ERROR_VARIABLE err
      TIMEOUT 30)
    if(NOT rc STREQUAL "0" OR NOT out MATCHES "^usage: ")
      message(FATAL_ERROR
        "${tool} ${flag}: expected exit 0 and the usage line on stdout, "
        "got exit '${rc}':\n${out}${err}")
    endif()
  endforeach()
endforeach()

if(EXISTS /dev/full)
  execute_process(
    COMMAND "${DEPROTO_RUN}" epidemic --n 100 --periods 1 --quiet
            --spec-out /dev/full
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 60)
  if(NOT rc STREQUAL "1" OR NOT err MATCHES "error: writing /dev/full failed")
    message(FATAL_ERROR
      "--spec-out /dev/full: expected exit 1 and a write error, got exit "
      "'${rc}':\n${err}")
  endif()
endif()

message(STATUS "cli reject smoke: every bad flag failed closed")
