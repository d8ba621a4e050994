# Golden-bytes smoke: run the registry smoke (19 scenarios x sync, event
# and count at N <= 500, ~0.2 s) on one thread and compare the SHA-256 of
# its --json and --jsonl artifacts against the digests pinned below. The
# determinism contract makes these bytes a function of the source alone,
# so a refactor that claims "same behaviour" must leave them unchanged:
#
#   cmake -DDEPROTO_RUN=<path/to/deproto-run> -P tools/smoke_digest.cmake
#
# An intended output change (a new scenario, a changed draw order, a new
# result field) updates the two digests here in the same commit, and its
# CHANGES.md entry says so. The digests hold under the release and asan
# presets alike.
#
# Scratch space lives next to the binary under test (the build tree, never
# the source checkout) and is recreated from empty on every invocation.

set(expected_json
    "2cab7cdaae75a9a9a19a20f454fcd4f45a00ecedd7364b829dd0eeaf7fa97688")
set(expected_jsonl
    "c460e162943031b6bc32a785bc4895d740520d0a6c692c704761c4c4d8c00421")

if(NOT DEFINED DEPROTO_RUN)
  message(FATAL_ERROR "pass -DDEPROTO_RUN=<path to deproto-run>")
endif()

get_filename_component(bin_dir "${DEPROTO_RUN}" DIRECTORY)
set(work "${bin_dir}/smoke-digest")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")

execute_process(
  COMMAND "${DEPROTO_RUN}" --smoke --threads 1
          --jsonl "${work}/smoke.jsonl" --json "${work}/smoke.json"
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE stdout
  ERROR_VARIABLE stderr)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR
    "deproto-run --smoke failed (exit ${rc}):\n${stdout}\n${stderr}")
endif()

foreach(artifact json jsonl)
  file(SHA256 "${work}/smoke.${artifact}" actual)
  if(NOT actual STREQUAL expected_${artifact})
    message(FATAL_ERROR
      "smoke .${artifact} digest changed:\n"
      "  expected ${expected_${artifact}}\n"
      "  actual   ${actual}\n"
      "The smoke output is no longer byte-identical. If the change is "
      "intended, update the digest in tools/smoke_digest.cmake and say so "
      "in CHANGES.md.")
  endif()
endforeach()

message(STATUS
  "smoke digest: --json and --jsonl byte-identical to the pinned digests")
