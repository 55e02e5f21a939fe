# identity_matrix_smoke: keep bench/identity_matrix.sh working. Runs its
# --slice twice and requires identical output trees (diff -r, the check
# the full matrix exists for), exit status 0 everywhere and every
# observer artifact of the observed rows.
# Invoked by ctest as
#   cmake -DBFS_TOOL=<bfs_tool> -DSCRIPT=<identity_matrix.sh>
#         -DOUT_DIR=<scratch> -P identity_matrix_smoke.cmake
foreach(var BFS_TOOL SCRIPT OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "identity_matrix_smoke: -D${var}=... is required")
  endif()
endforeach()

foreach(side first second)
  execute_process(
    COMMAND bash "${SCRIPT}" "${BFS_TOOL}" "${OUT_DIR}/${side}" --slice
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "identity_matrix_smoke: the ${side} slice failed "
                        "(rc=${rc})\n${out}${err}")
  endif()
endforeach()

execute_process(COMMAND diff -r "${OUT_DIR}/first" "${OUT_DIR}/second"
                RESULT_VARIABLE rc OUTPUT_VARIABLE diff_out)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "identity_matrix_smoke: two runs of the slice "
                      "differ:\n${diff_out}")
endif()

file(GLOB runs LIST_DIRECTORIES true "${OUT_DIR}/first/*")
list(LENGTH runs count)
if(count LESS 5)
  message(FATAL_ERROR "identity_matrix_smoke: expected 5 runs, got ${count}")
endif()
foreach(run IN LISTS runs)
  file(READ "${run}/exit.txt" status)
  string(STRIP "${status}" status)
  if(NOT status STREQUAL "0")
    message(FATAL_ERROR "identity_matrix_smoke: ${run} exited ${status}")
  endif()
  file(READ "${run}/stdout.txt" stdout)
  if(NOT stdout MATCHES "\n{\"algorithm\":")
    message(FATAL_ERROR "identity_matrix_smoke: ${run} printed no report")
  endif()
  if(run MATCHES "-observed$")
    foreach(artifact trace.json atlas.json flight.json)
      file(SIZE "${run}/${artifact}" bytes)
      if(bytes EQUAL 0)
        message(FATAL_ERROR "identity_matrix_smoke: ${run}/${artifact} "
                            "is empty")
      endif()
    endforeach()
  endif()
endforeach()
message(STATUS "identity_matrix_smoke: ${count} runs, identical twice")
