# Runs PROG with the space-separated ARGS and fails unless it exits with
# code EXPECT. A crash (e.g. an abort from an uncaught exception) never
# matches, unlike WILL_FAIL, which accepts any failure.
#
#   cmake -DPROG=<binary> "-DARGS=<args>" -DEXPECT=2 -P expect_exit.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit ${EXPECT}, got '${rc}': ${err}")
endif()
