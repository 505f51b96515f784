# Runs PROG with the space-separated ARGS and fails unless it exits with
# code EXPECT. A crash (e.g. an abort from an uncaught exception) never
# matches, unlike WILL_FAIL, which accepts any failure. With ABSENT, that
# path is removed first and must still be absent afterwards: the command
# created nothing there.
#
#   cmake -DPROG=<binary> "-DARGS=<args>" -DEXPECT=2 [-DABSENT=<path>]
#         -P expect_exit.cmake
if(ABSENT)
  file(REMOVE_RECURSE "${ABSENT}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROG}" ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT}")
  message(FATAL_ERROR "expected exit ${EXPECT}, got '${rc}': ${err}")
endif()
if(ABSENT AND EXISTS "${ABSENT}")
  message(FATAL_ERROR "exit ${rc}, but ${ABSENT} was created")
endif()
