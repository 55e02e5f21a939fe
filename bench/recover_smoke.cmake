# recover_smoke: end-to-end check of fail-stop recovery.
#   1. bfs_tool runs with a rank killed mid-traversal under both recovery
#      policies; every BFS tree must still validate and the tool must
#      report the survived failure. Under the sanitize preset this whole
#      path — kill, detection, shrink/spare rebuild, checkpoint restore,
#      replay — runs under ASan/UBSan.
#   2. Killing the only rank of a one-rank run leaves nothing to shrink
#      to: bfs_tool must fail loudly (exit 2, "rank failure") and still
#      write the flight-recorder dump, for both distributions.
#   3. bench_suite produces a killed record and an inert-plan (no-fault)
#      record of the same configuration, and bench_diff between them must
#      be clean: the kill only hits the first search of repetition 0, so
#      the recovery cost must sit inside the record's own noise gate. The
#      plans use a fast-detection backoff (a responsive interconnect)
#      so the fixed ULFM-style detection timeout does not dwarf the
#      miniature searches; the inert plan schedules the same kill on an
#      absent rank so faults_enabled matches on both sides (bench_diff
#      refuses to compare records whose fault configs drift).
# Invoked by ctest as
#   cmake -DBFS_TOOL=<exe> -DBENCH_SUITE=<exe> -DBENCH_DIFF=<exe>
#         -DOUT_DIR=<scratch> -P recover_smoke.cmake
foreach(var BFS_TOOL BENCH_SUITE BENCH_DIFF OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "recover_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}/nofault" "${OUT_DIR}/killed")

# --- 1. killed runs must validate and report the recovery -------------
foreach(pair "1d;shrink" "2d;spare")
  list(GET pair 0 algo)
  list(GET pair 1 policy)
  execute_process(
    COMMAND "${BFS_TOOL}" --gen rmat --scale 11 --cores 16 --algo ${algo}
            --sources 2 --fault-plan kill:2@level2 --checkpoint-every 1
            --recover-policy ${policy}
    RESULT_VARIABLE run_rc
    OUTPUT_VARIABLE run_out
    ERROR_VARIABLE run_err)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "recover_smoke: bfs_tool --algo ${algo} "
                        "--recover-policy ${policy} failed (rc=${run_rc})\n"
                        "stdout:\n${run_out}\nstderr:\n${run_err}")
  endif()
  if(NOT run_out MATCHES "validated 2/2 BFS trees")
    message(FATAL_ERROR "recover_smoke: --algo ${algo} ran but did not "
                        "validate both trees after the kill\n"
                        "stdout:\n${run_out}")
  endif()
  if(NOT run_out MATCHES "rank failure\\(s\\) survived via ${policy}")
    message(FATAL_ERROR "recover_smoke: --algo ${algo} validated but never "
                        "reported the survived ${policy} recovery — did the "
                        "kill fire?\nstdout:\n${run_out}")
  endif()
endforeach()

# --- 2. an unrecoverable kill must abort with a flight dump ----------
foreach(algo 1d 2d)
  set(dump "${OUT_DIR}/dead_${algo}.json")
  execute_process(
    COMMAND "${BFS_TOOL}" --algo ${algo} --scale 8 --cores 1 --threads 1
            --sources 1 --fault-plan kill:0@level1 --recover-policy shrink
            --flight-out "${dump}"
    RESULT_VARIABLE dead_rc
    OUTPUT_VARIABLE dead_out
    ERROR_VARIABLE dead_err)
  if(NOT dead_rc EQUAL 2)
    message(FATAL_ERROR "recover_smoke: --algo ${algo} killing the only "
                        "rank should exit 2 (rc=${dead_rc})\n"
                        "stdout:\n${dead_out}\nstderr:\n${dead_err}")
  endif()
  if(NOT "${dead_out}${dead_err}" MATCHES "rank failure")
    message(FATAL_ERROR "recover_smoke: --algo ${algo} exited 2 without "
                        "naming the rank failure\n"
                        "stdout:\n${dead_out}\nstderr:\n${dead_err}")
  endif()
  if(NOT EXISTS "${dump}")
    message(FATAL_ERROR "recover_smoke: --algo ${algo} died without "
                        "writing the flight dump ${dump}")
  endif()
endforeach()

# --- 3. recovery cost must sit inside the benchmark noise gate --------
# Same plan twice, except the kill target: rank 3 exists at 64 ranks,
# rank 999 never does (absent-rank kills are ignored by design), so the
# second plan is enabled-but-inert.
set(plan_tail "\"max_collective_retries\":6,\"backoff_base_seconds\":1e-6,\"backoff_cap_seconds\":2e-5")
file(WRITE "${OUT_DIR}/plan_killed.json"
     "{${plan_tail},\"rank_kills\":[{\"rank\":3,\"at_level\":2}]}")
file(WRITE "${OUT_DIR}/plan_inert.json"
     "{${plan_tail},\"rank_kills\":[{\"rank\":999,\"at_level\":2}]}")

foreach(side "nofault;plan_inert" "killed;plan_killed")
  list(GET side 0 dir)
  list(GET side 1 plan)
  execute_process(
    COMMAND "${BENCH_SUITE}" --scales=13 --algos=2d --wires=raw
            "--fault-plan=${OUT_DIR}/${plan}.json" --checkpoint-every=1
            --recover-policy=spare "--out-dir=${OUT_DIR}/${dir}"
    RESULT_VARIABLE suite_rc
    OUTPUT_VARIABLE suite_out
    ERROR_VARIABLE suite_err)
  if(NOT suite_rc EQUAL 0)
    message(FATAL_ERROR "recover_smoke: bench_suite (${dir}) failed "
                        "(rc=${suite_rc})\nstdout:\n${suite_out}\n"
                        "stderr:\n${suite_err}")
  endif()
endforeach()

execute_process(
  COMMAND "${BENCH_DIFF}" "${OUT_DIR}/nofault" "${OUT_DIR}/killed"
  RESULT_VARIABLE diff_rc
  OUTPUT_VARIABLE diff_out
  ERROR_VARIABLE diff_err)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR "recover_smoke: killed record regressed beyond the "
                      "noise gate against the inert-plan record "
                      "(rc=${diff_rc})\nstdout:\n${diff_out}\n"
                      "stderr:\n${diff_err}")
endif()
if(NOT diff_out MATCHES "0 regression")
  message(FATAL_ERROR "recover_smoke: clean diff reported regressions?\n"
                      "${diff_out}")
endif()

message(STATUS "recover_smoke passed: kills survived with validated trees "
               "(1d/shrink, 2d/spare); one-rank kills abort with a flight "
               "dump (1d, 2d); killed-vs-inert TEPS within the noise gate")
