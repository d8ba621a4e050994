# Exact-verifier smoke: run deproto-lint --exact over every registered
# scenario at a small-N-feasible population and assert (a) the gate holds
# (exit 0: warnings allowed, error findings are not), (b) the exact
# pass actually ran -- the output must carry exact.* findings, including
# the absorption verdicts the epidemic and lv-majority families are known
# to produce, rather than silently skipping every chain on budget -- and
# (c) the --json report hashes to the digest pinned below, so every
# exact verdict (kernel, classes, solves) is byte-stable:
#
#   cmake -DDEPROTO_LINT=<path/to/deproto-lint> -P tools/lint_exact_smoke.cmake
#
# As in tools/smoke_digest.cmake, an intended change of the exact tier's
# output updates the digest in the same commit and says so in CHANGES.md.
# The digest holds under the release and asan presets alike; scratch space
# lives next to the binary under test.
#
# n = 16 keeps every registry machine comfortably inside the default
# state-space budget (3-state machines give C(18, 2) = 153 lattice
# points) while still exhibiting the interesting finite-N behavior: the
# endemic family is provably absorbed into extinction at this size, which
# is a warning, not an error, so the gate stays green.
#
# The --json report is pinned at n = 24 as well: its solves run more
# Gauss-Seidel sweeps than at n = 16 (the endemic hitting times grow with
# n), so a change to the solves' summation order shows there first.

set(expected_json_16
    "c741a8d317fe2350fbf042ae9046bab1c243656842f30f4fd2ce3611edc6736a")
set(expected_json_24
    "9dcf8fc31e6630b57dc1b2780fce6f7101a467d27d84a6c2ea8e3a71d57e0078")

if(NOT DEFINED DEPROTO_LINT)
  message(FATAL_ERROR "pass -DDEPROTO_LINT=<path to deproto-lint>")
endif()

execute_process(
  COMMAND "${DEPROTO_LINT}" --registry --exact --exact-n 16
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "deproto-lint --exact over the registry failed (exit ${rc}):\n"
    "${stdout}\n${stderr}")
endif()

# The exact tier must have produced verdicts, not budget skips.
if(NOT stdout MATCHES "exact\\.absorbing-class")
  message(FATAL_ERROR
    "no exact.absorbing-class findings in the registry lint:\n${stdout}")
endif()
if(NOT stdout MATCHES "exact\\.hitting-time")
  message(FATAL_ERROR
    "no exact.hitting-time findings in the registry lint:\n${stdout}")
endif()
if(stdout MATCHES "exact\\.state-budget")
  message(FATAL_ERROR
    "exact pass hit the state budget at n = 16; the smoke is supposed to "
    "run every registry machine exactly:\n${stdout}")
endif()

get_filename_component(bin_dir "${DEPROTO_LINT}" DIRECTORY)
set(work "${bin_dir}/lint-exact-digest")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")
foreach(n 16 24)
  execute_process(
    COMMAND "${DEPROTO_LINT}" --registry --exact --exact-n ${n} --json
    RESULT_VARIABLE rc
    OUTPUT_FILE "${work}/lint-exact-${n}.json"
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "deproto-lint --exact --exact-n ${n} --json over the registry failed "
      "(exit ${rc}):\n${stderr}")
  endif()
  file(SHA256 "${work}/lint-exact-${n}.json" actual)
  if(NOT actual STREQUAL expected_json_${n})
    message(FATAL_ERROR
      "exact lint --json digest at n = ${n} changed:\n"
      "  expected ${expected_json_${n}}\n"
      "  actual   ${actual}\n"
      "The exact tier's report is no longer byte-identical. If the change "
      "is intended, update the digest in tools/lint_exact_smoke.cmake and "
      "say so in CHANGES.md.")
  endif()
endforeach()

message(STATUS
  "lint exact smoke: registry linted clean with exact.* verdicts at n = 16, "
  "--json byte-identical to the pinned digests at n = 16 and 24")
