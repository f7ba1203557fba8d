# bench_swarm's own determinism check. A small sharded sweep runs at one
# worker thread and at the default (one per shard), and each run must print
# the recorded Part 2 digest for every shard count K, in K order. The digest
# is keyed on (seed, K, NetConfig), so only a change to the simulated run
# moves it; a change that means to move it records the new values here and
# says why in CHANGES.md.
#
#   cmake -DBENCH=<bench_swarm binary> -P check_swarm_digests.cmake

set(ENV{STANK_SWARM_NS} 100)
set(ENV{STANK_SWARM_N_SHARDED} 2000)
set(ENV{STANK_SWARM_KS} 1,2,4)
unset(ENV{STANK_SWARM_TELEMETRY})
unset(ENV{STANK_BENCH_JSON})
set(expected 689f906beadde698 5e8cdecb9198cb28 976dd1ebdbd0773f)
string(REPEAT "[0-9a-f]" 16 hex16)

foreach(threads 1 default)
  if(threads STREQUAL "default")
    unset(ENV{STANK_SWARM_THREADS})
  else()
    set(ENV{STANK_SWARM_THREADS} ${threads})
  endif()
  execute_process(COMMAND "${BENCH}" OUTPUT_VARIABLE out RESULT_VARIABLE rc
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH} (threads ${threads}) exited ${rc}:\n${err}\n${out}")
  endif()
  # The digest, 16 hex digits, is the last cell of each Part 2 row.
  string(REGEX MATCHALL "\\| ${hex16} \\|\n" cells "${out}")
  set(got "")
  foreach(cell IN LISTS cells)
    string(REGEX REPLACE "[| \n]" "" digest "${cell}")
    list(APPEND got ${digest})
  endforeach()
  if(NOT got STREQUAL expected)
    message(FATAL_ERROR "threads ${threads}: digests '${got}', expected '${expected}':\n${out}")
  endif()
endforeach()
