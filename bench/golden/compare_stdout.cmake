# Runs one paper bench binary and compares its stdout byte for byte with
# its checked-in golden (`ctest -L results`).
#
#   cmake -DBINARY=<bench> -DGOLDEN=<golden.txt> -DOUTPUT=<out.txt>
#         -P compare_stdout.cmake
#
# The calling test sets FGBS_THREADS and FGBS_MEAS_CACHE in the
# environment; the binary inherits them.
foreach(var BINARY GOLDEN OUTPUT)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare_stdout.cmake: -D${var}=... is required")
  endif()
endforeach()

execute_process(COMMAND ${BINARY}
  OUTPUT_FILE ${OUTPUT}
  RESULT_VARIABLE run_result)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "${BINARY} failed: ${run_result}")
endif()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files ${OUTPUT} ${GOLDEN}
  RESULT_VARIABLE compare_result)
if(NOT compare_result EQUAL 0)
  message(FATAL_ERROR "stdout differs from the golden "
                      "(a moved number is a changed result):\n"
                      "  diff ${GOLDEN} ${OUTPUT}")
endif()
