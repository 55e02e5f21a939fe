# figures_smoke: each deterministic table and figure binary, run with
# every DISTBFS_* variable unset, prints exactly bench/expected/<name>.txt.
# Their stdout is virtual time only, the same bytes at any host thread
# count. If a figure moves on purpose, regenerate its file and the
# EXPERIMENTS.md text that quotes it in the same change.
# Invoked by ctest as
#   cmake -DBIN_DIR=<dir of the bench binaries> -DEXPECTED_DIR=<pins>
#         -DOUT_DIR=<scratch> -P figures_smoke.cmake
foreach(var BIN_DIR EXPECTED_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "figures_smoke: -D${var}=... is required")
  endif()
endforeach()

set(figures
    table1_comm_decomposition
    table2_pbgl_comparison
    tableX_graph500_reference
    fig4_vector_distribution
    fig5_strong_scaling_franklin
    fig7_strong_scaling_hopper
    fig9_weak_scaling
    fig10_degree_sensitivity
    fig11_ukunion)

# Child processes inherit this script's environment.
execute_process(COMMAND "${CMAKE_COMMAND}" -E environment
                OUTPUT_VARIABLE env)
string(REGEX MATCHALL "(^|\n)DISTBFS_[A-Za-z0-9_]*=" assignments "${env}")
foreach(assignment IN LISTS assignments)
  string(REGEX REPLACE "^\n?(DISTBFS_[A-Za-z0-9_]*)=$" "\\1" name
                       "${assignment}")
  unset(ENV{${name}})
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

set(moved "")
foreach(fig IN LISTS figures)
  execute_process(
    COMMAND "${BIN_DIR}/${fig}"
    RESULT_VARIABLE rc
    OUTPUT_FILE "${OUT_DIR}/${fig}.txt"
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "figures_smoke: ${fig} failed (rc=${rc})\n"
                        "stderr:\n${err}")
  endif()
  execute_process(
    COMMAND "${CMAKE_COMMAND}" -E compare_files
            "${EXPECTED_DIR}/${fig}.txt" "${OUT_DIR}/${fig}.txt"
    RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    string(APPEND moved "\n  ${fig}: diff ${EXPECTED_DIR}/${fig}.txt "
                        "${OUT_DIR}/${fig}.txt")
  endif()
endforeach()

if(NOT moved STREQUAL "")
  message(FATAL_ERROR "figures_smoke: printed figures differ from "
                      "${EXPECTED_DIR}:${moved}")
endif()
message(STATUS "figures_smoke passed: every figure matches its pin")
