# A replay file must describe its episode exactly: the flight trace that
# fuzz_safety --replay FILE --trace writes has to be byte-identical to the one
# the sweep wrote when it saved FILE.
#
#   cmake -DFUZZ_SAFETY=<fuzz_safety> -DWORK_DIR=<scratch dir> \
#         -P replay_reproduces_trace.cmake

set(file "${WORK_DIR}/replay_trace_check.txt")
file(REMOVE "${file}" "${file}.trace" "${file}.sweep.trace")
# The negative control at seed 7 violates within its first ten episodes.
execute_process(COMMAND "${FUZZ_SAFETY}" --negative-control --episodes 10 --seed 7 --jobs 1
                        --out "${file}"
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0 OR NOT EXISTS "${file}.trace")
  message(FATAL_ERROR "the sweep wrote no replay (exit ${rc}): ${out}${err}")
endif()
file(RENAME "${file}.trace" "${file}.sweep.trace")
execute_process(COMMAND "${FUZZ_SAFETY}" --replay "${file}" --trace
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT (rc EQUAL 0 OR rc EQUAL 1) OR NOT EXISTS "${file}.trace")
  message(FATAL_ERROR "the replay failed (exit ${rc}): ${err}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${file}.sweep.trace" "${file}.trace"
                RESULT_VARIABLE differ)
if(differ)
  message(FATAL_ERROR "the replay's trace differs from the sweep's: ${file}.trace")
endif()
