# Golden gate for one example: runs the binary and byte-compares its stdout
# with the checked-in tests/golden/examples/<name>.txt.
#
# ctest runs the check (the `golden` label in tests/CMakeLists.txt):
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<golden file> -DWORK=<output file>
#         -P examples_golden.cmake
# A change that moves an example's output on purpose regenerates its golden
# in the same diff (and says why in CHANGES.md):
#   build/examples/<name> > tests/golden/examples/<name>.txt

cmake_minimum_required(VERSION 3.16)

execute_process(COMMAND "${EXAMPLE}" OUTPUT_FILE "${WORK}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE}: ${rc}")
endif()
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files "${GOLDEN}" "${WORK}"
                RESULT_VARIABLE differ)
if(differ)
  message(FATAL_ERROR "${EXAMPLE} printed ${WORK}, which differs from ${GOLDEN}")
endif()
