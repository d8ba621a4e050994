# Cached-sweep smoke: run the CI sweep preset three times and assert that
# neither the cache nor the thread count shows in the artifacts. The cold
# and warm passes run on 2 threads against one cache directory: the warm
# run must report every job as a cache hit. A third pass runs on 1 thread
# with no cache. All three must write byte-identical --json/--jsonl
# artifacts -- the determinism contract extended to cache replays and to
# the thread count. Runnable as one command from CTest and the CI jobs:
#
#   cmake -DDEPROTO_RUN=<path/to/deproto-run> -P tools/cached_sweep_smoke.cmake
#
# Scratch space lives next to the binary under test (the build tree, never
# the source checkout -- in script mode CMAKE_CURRENT_BINARY_DIR is just
# the invoking cwd) and is recreated from empty on every invocation.

if(NOT DEFINED DEPROTO_RUN)
  message(FATAL_ERROR "pass -DDEPROTO_RUN=<path to deproto-run>")
endif()

get_filename_component(bin_dir "${DEPROTO_RUN}" DIRECTORY)
set(work "${bin_dir}/cached-sweep-smoke")
file(REMOVE_RECURSE "${work}")
file(MAKE_DIRECTORY "${work}")

set(sweep_args --sweep smoke-epidemic-scaling --quiet)
set(cold_exec_args --threads 2 --cache "${work}/cache")
set(warm_exec_args ${cold_exec_args})
set(plain_exec_args --threads 1 --no-cache)

foreach(pass cold warm plain)
  execute_process(
    COMMAND "${DEPROTO_RUN}" ${sweep_args} ${${pass}_exec_args}
            --json "${work}/${pass}.json" --jsonl "${work}/${pass}.jsonl"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE stdout
    ERROR_VARIABLE stderr)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
      "${pass} cached sweep failed (exit ${rc}):\n${stdout}\n${stderr}")
  endif()
  set(${pass}_stdout "${stdout}")
endforeach()

# The cold run executes everything; the warm run must replay everything.
if(NOT cold_stdout MATCHES "cache: 0/8 hits, 8 misses \\(0 corrupt\\), 8 stored")
  message(FATAL_ERROR "cold run did not miss+store all 8 jobs:\n${cold_stdout}")
endif()
if(NOT warm_stdout MATCHES "cache: 8/8 hits, 0 misses \\(0 corrupt\\), 0 stored")
  message(FATAL_ERROR "warm run was not all cache hits:\n${warm_stdout}")
endif()

if(plain_stdout MATCHES "cache:")
  message(FATAL_ERROR "--no-cache run still used a cache:\n${plain_stdout}")
endif()

# Byte-identical artifacts: cached and fresh results, and 1 and 2 threads,
# are indistinguishable to every sink.
foreach(pass warm plain)
  foreach(artifact json jsonl)
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files
              "${work}/cold.${artifact}" "${work}/${pass}.${artifact}"
      RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
      message(FATAL_ERROR
        "${pass} .${artifact} differs from the cold cached run (cache or "
        "thread count broke determinism)")
    endif()
  endforeach()
endforeach()

message(STATUS
  "cached sweep smoke: warm run all hits; cold, warm and uncached "
  "1-thread artifacts byte-identical")
