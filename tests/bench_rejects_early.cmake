# A malformed flag value ends a bench before it does any work. Invoked by
# ctest as
#   cmake -DBENCH=<bench binary> "-DARGS=<arg;arg;...>" -DHEADER=<text>
#         -P bench_rejects_early.cmake
# and fails unless the bench exits 1 without printing HEADER, the start of
# its first section.
if(NOT DEFINED BENCH OR NOT DEFINED ARGS OR NOT DEFINED HEADER)
  message(FATAL_ERROR "usage: cmake -DBENCH=<bin> -DARGS=<args> -DHEADER=<text> -P bench_rejects_early.cmake")
endif()

execute_process(
  COMMAND "${BENCH}" ${ARGS}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "${BENCH} ${ARGS} exited with ${rc}, expected 1\n${err}")
endif()
string(FIND "${out}" "${HEADER}" at)
if(NOT at EQUAL -1)
  message(FATAL_ERROR "${BENCH} ran its first section before rejecting ${ARGS}:\n${out}")
endif()
message(STATUS "rejected at once: ${err}")
