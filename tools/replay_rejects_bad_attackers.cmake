# fuzz_safety --replay must refuse a replay file with a bad attacker line:
# exit 2, naming the line. A well-formed attacker line must still replay.
#
#   cmake -DFUZZ_SAFETY=<fuzz_safety> -DWORK_DIR=<scratch dir> \
#         -P replay_rejects_bad_attackers.cmake

# Client index >= num_clients, mask bits beyond the six behaviors, skews
# that are not finite, and values that do not parse completely.
set(bad_lines
  "byzantine=9 4095 0"
  "byzantine=9 1 0"
  "byzantine=3 1 0"
  "byzantine=1 64 0"
  "byzantine=1 1 1e999"
  "byzantine=1 1 nan"
  "byzantine=1 1 0.5 junk"
  "byzantine=1 1x 0"
  "byzantine=1 1")

function(replay name body out_rc out_err)
  set(file "${WORK_DIR}/replay_check_${name}.txt")
  file(WRITE "${file}" "num_clients=3\nrun_seconds=1\n${body}\n")
  execute_process(COMMAND "${FUZZ_SAFETY}" --replay "${file}"
                  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
  set(${out_rc} "${rc}" PARENT_SCOPE)
  set(${out_err} "${err}" PARENT_SCOPE)
endfunction()

set(i 0)
foreach(line IN LISTS bad_lines)
  replay("bad${i}" "${line}" rc err)
  if(NOT rc EQUAL 2)
    message(FATAL_ERROR "'${line}': expected exit 2, got ${rc}")
  endif()
  if(NOT err MATCHES "line 3")
    message(FATAL_ERROR "'${line}': the error does not name line 3: ${err}")
  endif()
  math(EXPR i "${i} + 1")
endforeach()

replay(good "byzantine=1 1 0.5" rc err)
if(NOT (rc EQUAL 0 OR rc EQUAL 1))
  message(FATAL_ERROR "a well-formed attacker line was refused (exit ${rc}): ${err}")
endif()
