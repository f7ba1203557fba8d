# A paper bench's stdout must equal its committed golden file byte for byte.
# The paper benches are deterministic, so any difference is a behaviour
# change: a change that means to make one regenerates the golden file from
# the bench's stdout and explains every changed line.
#
#   cmake -DBENCH=<bench binary> -DGOLDEN=<golden file> -DOUT=<scratch file> \
#         -P check_golden.cmake

execute_process(COMMAND "${BENCH}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${rc}:\n${err}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${OUT}"
                RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  execute_process(COMMAND diff -u "${GOLDEN}" "${OUT}" OUTPUT_VARIABLE delta)
  message(FATAL_ERROR "stdout differs from ${GOLDEN}:\n${delta}")
endif()
