# Script mode helper for CTest: runs PROGRAM with the space-separated ARGS
# and passes only when it exits with EXPECTED. A crash (signal) or any
# other exit code fails, which a plain WILL_FAIL test cannot tell apart.
#
#   cmake -DPROGRAM=<exe> "-DARGS=<a b c>" -DEXPECTED=<code>
#         -P cmake/ExpectExitCode.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${PROGRAM}" ${args} RESULT_VARIABLE rc)
if(NOT "${rc}" STREQUAL "${EXPECTED}")
  message(FATAL_ERROR
    "${PROGRAM} ${ARGS}: expected exit code ${EXPECTED}, got \"${rc}\"")
endif()
