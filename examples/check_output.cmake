# Runs one example and diffs its stdout against the pinned copy in
# examples/expected/. Every example is deterministic, so any difference is
# a behaviour change; re-pin on purpose as docs/TESTING.md describes.
#
# Usage: cmake -DEXAMPLE=<binary> -DEXPECTED=<file> -DACTUAL=<file>
#              -P check_output.cmake
execute_process(COMMAND "${EXAMPLE}" OUTPUT_FILE "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()
execute_process(COMMAND diff -u "${EXPECTED}" "${ACTUAL}"
                RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "stdout of ${EXAMPLE} differs from ${EXPECTED}")
endif()
