# Golden-output check, run by ctest as
#   cmake -DPROGRAM=<exe> [-DARGS=<arg;...>] -DGOLDEN=<file> -P check_stdout.cmake
# Fails unless PROGRAM exits 0 and its stdout equals GOLDEN byte for byte.
# To re-record a golden file after an intended output change, run the
# program the same way and redirect its stdout over the file.
execute_process(COMMAND ${PROGRAM} ${ARGS}
                OUTPUT_VARIABLE actual
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${status}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(FATAL_ERROR "stdout of ${PROGRAM} differs from ${GOLDEN}\n"
                      "--- expected\n${expected}\n--- actual\n${actual}")
endif()
