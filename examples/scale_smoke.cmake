# scale_smoke: flat and hybrid 1D at the paper's largest core counts.
# Every exchange is routed from its non-empty blocks, so a world
# alltoallv over 20 000 ranks costs what its items cost; this test fails
# (or times out) if any per-level step grows with the square of the rank
# count again. Both runs must validate their BFS tree.
#   bfs_tool --algo 1d        --cores 20000  (20 000 ranks)
#   bfs_tool --algo 1d-hybrid --cores 40000  (6666 ranks x 6 threads)
# Invoked by ctest as
#   cmake -DBFS_TOOL=<exe> -P scale_smoke.cmake
if(NOT DEFINED BFS_TOOL)
  message(FATAL_ERROR "scale_smoke: -DBFS_TOOL=... is required")
endif()

foreach(run "1d;20000" "1d-hybrid;40000")
  list(GET run 0 algo)
  list(GET run 1 cores)
  execute_process(
    COMMAND "${BFS_TOOL}" --algo ${algo} --scale 16 --sources 1
            --machine hopper --cores ${cores}
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
  if(NOT run_rc EQUAL 0 OR NOT run_out MATCHES "validated 1/1 BFS trees")
    message(FATAL_ERROR "scale_smoke: bfs_tool --algo ${algo} --cores "
                        "${cores} did not validate (rc=${run_rc})\n"
                        "stdout:\n${run_out}\nstderr:\n${run_err}")
  endif()
endforeach()
message(STATUS "scale_smoke passed: flat 1D at 20000 cores and hybrid 1D "
               "at 40000 cores validate")
