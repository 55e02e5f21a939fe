# bench_smoke: end-to-end check of the continuous-benchmark loop.
#   1. The repo root must hold the committed BENCH_*.json baselines
#      (>= 6 records — the bench_suite matrix at scales 14-16).
#   2. A fresh scale-14 suite run must diff clean against them: the
#      simulator is virtual-time deterministic, so identical seeds give
#      identical numbers and any delta is a real code change. Its five
#      records must also equal the committed ones byte for byte, so a
#      baseline that lacks a field the current code writes (or holds a
#      number inside bench_diff's noise band) fails too.
#   3. A deliberately slowed run (--slow-beta=2 doubles the per-byte
#      network cost) must be flagged as a regression — proving the gate
#      actually fires and is not vacuously green.
#   4. A malformed option value (--cores=abc) must exit 2 with a
#      "bad value" message, not abort.
# Invoked by ctest as
#   cmake -DBENCH_SUITE=<exe> -DBENCH_DIFF=<exe> -DBASELINE_DIR=<repo>
#         -DOUT_DIR=<scratch> -P bench_smoke.cmake
foreach(var BENCH_SUITE BENCH_DIFF BASELINE_DIR OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_smoke: -D${var}=... is required")
  endif()
endforeach()

file(GLOB baselines "${BASELINE_DIR}/BENCH_*.json")
list(LENGTH baselines nbaselines)
if(nbaselines LESS 6)
  message(FATAL_ERROR "bench_smoke: expected >= 6 committed BENCH_*.json "
                      "baselines at ${BASELINE_DIR}, found ${nbaselines}. "
                      "Refresh with bench_suite --out-dir=<repo root> "
                      "(see EXPERIMENTS.md)")
endif()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}/current" "${OUT_DIR}/slowed")

# Fresh scale-14 run of the full {1d,2d} x {raw,auto} slice.
execute_process(
  COMMAND "${BENCH_SUITE}" --scales=14 "--out-dir=${OUT_DIR}/current"
  RESULT_VARIABLE suite_rc
  OUTPUT_VARIABLE suite_out
  ERROR_VARIABLE suite_err)
if(NOT suite_rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: bench_suite failed (rc=${suite_rc})\n"
                      "stdout:\n${suite_out}\nstderr:\n${suite_err}")
endif()

# The direction-optimized trajectory is gated too: regenerate the
# scale-14 hybrid point into the same directory so the diff below covers
# BENCH_rmat14_2d_hybrid_c64.json alongside the top-down matrix.
execute_process(
  COMMAND "${BENCH_SUITE}" --scales=14 --algos=2d --wires=auto
          --direction=hybrid "--out-dir=${OUT_DIR}/current"
  RESULT_VARIABLE hybrid_rc
  OUTPUT_VARIABLE hybrid_out
  ERROR_VARIABLE hybrid_err)
if(NOT hybrid_rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: hybrid bench_suite run failed "
                      "(rc=${hybrid_rc})\nstdout:\n${hybrid_out}\n"
                      "stderr:\n${hybrid_err}")
endif()

# Identical seeds => the diff against the committed baselines must be
# clean. (The baseline set also covers scales 15-16; the extra names are
# fine, bench_diff only compares common names.)
execute_process(
  COMMAND "${BENCH_DIFF}" "${BASELINE_DIR}" "${OUT_DIR}/current"
  RESULT_VARIABLE diff_rc
  OUTPUT_VARIABLE diff_out
  ERROR_VARIABLE diff_err)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: fresh identical-seed run did not diff "
                      "clean against the committed baselines "
                      "(rc=${diff_rc}). Either a perf change landed without "
                      "refreshing the baselines (see EXPERIMENTS.md) or the "
                      "records are unreadable.\n"
                      "stdout:\n${diff_out}\nstderr:\n${diff_err}")
endif()
if(NOT diff_out MATCHES "0 regression")
  message(FATAL_ERROR "bench_smoke: clean diff reported regressions?\n"
                      "${diff_out}")
endif()

file(GLOB regenerated "${OUT_DIR}/current/BENCH_*.json")
set(stale "")
foreach(record IN LISTS regenerated)
  get_filename_component(name "${record}" NAME)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                          "${BASELINE_DIR}/${name}" "${record}"
                  RESULT_VARIABLE same)
  if(NOT same EQUAL 0)
    list(APPEND stale "${name}")
  endif()
endforeach()
list(LENGTH regenerated nregenerated)
if(stale OR NOT nregenerated EQUAL 5)
  message(FATAL_ERROR "bench_smoke: of ${nregenerated} regenerated "
                      "scale-14 records (5 expected), these differ from the "
                      "committed baselines: ${stale}. Refresh all 15 with "
                      "the two bench_suite invocations in EXPERIMENTS.md "
                      "and name what moved in the change.")
endif()

# Doubling beta_net must trip the gate: comm time roughly doubles, far
# outside any noise band.
execute_process(
  COMMAND "${BENCH_SUITE}" --scales=14 --slow-beta=2
          "--out-dir=${OUT_DIR}/slowed"
  RESULT_VARIABLE slow_rc
  OUTPUT_VARIABLE slow_out
  ERROR_VARIABLE slow_err)
if(NOT slow_rc EQUAL 0)
  message(FATAL_ERROR "bench_smoke: slowed bench_suite failed "
                      "(rc=${slow_rc})\nstderr:\n${slow_err}")
endif()

execute_process(
  COMMAND "${BENCH_DIFF}" "${BASELINE_DIR}" "${OUT_DIR}/slowed"
          "--doctor-out=${OUT_DIR}/doctor"
  RESULT_VARIABLE slow_diff_rc
  OUTPUT_VARIABLE slow_diff_out
  ERROR_VARIABLE slow_diff_err)
if(NOT slow_diff_rc EQUAL 1)
  message(FATAL_ERROR "bench_smoke: 2x beta_net run should exit 1 "
                      "(regressions found), got rc=${slow_diff_rc}\n"
                      "stdout:\n${slow_diff_out}\nstderr:\n${slow_diff_err}")
endif()
if(NOT slow_diff_out MATCHES "REGRESSION")
  message(FATAL_ERROR "bench_smoke: slowed diff exited 1 but printed no "
                      "REGRESSION line\n${slow_diff_out}")
endif()
# The gate trip must hand the developer a diagnosis, not just a red flag:
# bench_diff --doctor-out names the auto-generated DOCTOR_*.json reports.
if(NOT slow_diff_out MATCHES "doctor: wrote .*DOCTOR_")
  message(FATAL_ERROR "bench_smoke: gate tripped but no doctor report was "
                      "generated/referenced\n${slow_diff_out}")
endif()

execute_process(
  COMMAND "${BENCH_SUITE}" --cores=abc --list
  RESULT_VARIABLE bad_rc
  OUTPUT_VARIABLE bad_out
  ERROR_VARIABLE bad_err)
if(NOT bad_rc EQUAL 2 OR NOT bad_err MATCHES "bench_suite: bad value")
  message(FATAL_ERROR "bench_smoke: --cores=abc should exit 2 naming the "
                      "bad value, got rc=${bad_rc}\nstdout:\n${bad_out}\n"
                      "stderr:\n${bad_err}")
endif()

message(STATUS "bench_smoke passed: ${nbaselines} baselines, identical-seed "
               "rerun byte-identical, 2x beta_net flagged and diagnosed")
