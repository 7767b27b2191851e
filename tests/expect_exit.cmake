# Run EXE with ARGS ('|'-separated) and fail unless it exits with status
# EXIT and its stderr matches STDERR_REGEX. A run that hangs (a refused
# value that was read after all) is killed after 60 s and fails.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${EXE}" ${args} RESULT_VARIABLE status
                OUTPUT_VARIABLE out ERROR_VARIABLE err TIMEOUT 60)
if(NOT "${status}" STREQUAL "${EXIT}")
  message(FATAL_ERROR "${EXE} ${args}: exit ${status}, expected ${EXIT}\n"
                      "${out}${err}")
endif()
if(NOT err MATCHES "${STDERR_REGEX}")
  message(FATAL_ERROR "${EXE} ${args}: stderr does not match "
                      "'${STDERR_REGEX}':\n${err}")
endif()
