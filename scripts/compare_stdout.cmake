# Runs BINARY and compares its stdout byte for byte with the GOLDEN file;
# a mismatch fails with a unified diff. With SPEX_REGENERATE_GOLDEN set in
# the environment it rewrites GOLDEN instead (review the diff after).
#
#   cmake -DBINARY=<exe> -DGOLDEN=<file> -P scripts/compare_stdout.cmake
execute_process(COMMAND ${BINARY} OUTPUT_VARIABLE actual RESULT_VARIABLE code)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${code}")
endif()
if(DEFINED ENV{SPEX_REGENERATE_GOLDEN})
  file(WRITE ${GOLDEN} "${actual}")
  message(STATUS "regenerated ${GOLDEN}")
  return()
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  get_filename_component(name ${GOLDEN} NAME_WE)
  set(actual_file ${CMAKE_CURRENT_BINARY_DIR}/${name}.actual.txt)
  file(WRITE ${actual_file} "${actual}")
  execute_process(COMMAND diff -u ${GOLDEN} ${actual_file})
  message(FATAL_ERROR "stdout of ${BINARY} differs from ${GOLDEN}")
endif()
