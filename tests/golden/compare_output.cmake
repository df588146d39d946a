# Run a program and require its stdout to equal a checked-in golden file
# byte for byte.
#
#   cmake -DPROGRAM=<exe> -DARGS="<a;b>" -DGOLDEN=<file> -DACTUAL=<file>
#         -P compare_output.cmake
#
# The actual output is written to ACTUAL so a failure can be diffed.
execute_process(COMMAND ${PROGRAM} ${ARGS}
                OUTPUT_FILE ${ACTUAL}
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${GOLDEN} ${ACTUAL}
                RESULT_VARIABLE differ)
if(differ)
  file(READ ${ACTUAL} got)
  message(FATAL_ERROR "output differs from ${GOLDEN}; got (${ACTUAL}):\n${got}")
endif()
