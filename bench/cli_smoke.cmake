# cli_smoke: the three drivers parse through one engine-flag binding and
# check every argument before any work.
#   1. bfs_tool rejects a malformed number (--cores abc): exit 2, and the
#      error names the flag.
#   2. graph500_runner rejects an algorithm it does not run (2D): exit 2.
#   3. graph500_runner --help prints usage and exits 0 without running.
#   4. graph500_runner takes every engine flag, --spare-ranks included:
#      a kill with no spare left exits 2, names the rank failure and
#      writes the flight dump.
#   5. bench_suite takes the engine flags in "--key value" form.
#   6. bench_suite rejects a malformed list entry (--scales=14x): exit 2
#      with "bench_suite: bad value".
#   7. a bfs_tool run that dies after the graph is built (unrecoverable
#      payload corruption) exits 2 with one "error:" line and no usage
#      text on stderr.
#   8. a source count below 1 is a bad argument in both tools: exit 2,
#      naming it, before any graph is built.
#   9. an engine flag out of range (a rate above 1, a negative count) is
#      a bad argument: exit 2, naming the flag.
#  10. a core count, source count or repetition count below 1 is a bad
#      argument in all three tools: exit 2, naming it, before any graph
#      is built or any record is written.
#  11. a hybrid run asked for fewer cores than one rank's natural thread
#      count (4 cores on hopper, 6 threads per rank) uses 4 cores, not 6.
#  12. a generator scale outside [1, 40] is a bad argument: exit 2,
#      naming --scale, before anything is generated (2^scale would
#      overflow or shift by a negative amount).
# Invoked by ctest as
#   cmake -DBFS_TOOL=<exe> -DGRAPH500_RUNNER=<exe> -DBENCH_SUITE=<exe>
#         -DOUT_DIR=<scratch> -P cli_smoke.cmake
foreach(var BFS_TOOL GRAPH500_RUNNER BENCH_SUITE OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "cli_smoke: -D${var}=... is required")
  endif()
endforeach()

file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

# run(<step> <expected rc> <command...>): run the command, require the
# exit code, and leave its output in <step>_out / <step>_err.
function(run step want_rc)
  execute_process(
    COMMAND ${ARGN}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL want_rc)
    message(FATAL_ERROR "cli_smoke: step ${step} should exit ${want_rc} "
                        "(rc=${rc})\ncommand: ${ARGN}\nstdout:\n${out}\n"
                        "stderr:\n${err}")
  endif()
  set(${step}_out "${out}" PARENT_SCOPE)
  set(${step}_err "${err}" PARENT_SCOPE)
endfunction()

# --- 1. a malformed number is an error naming the flag -----------------
run(s1 2 "${BFS_TOOL}" --algo 2d --scale 8 --cores abc --sources 1)
if(NOT s1_err MATCHES "--cores")
  message(FATAL_ERROR "cli_smoke: --cores abc exited 2 without naming "
                      "--cores\nstderr:\n${s1_err}")
endif()

# --- 2. an unknown algorithm is an error, not a fallback ----------------
run(s2 2 "${GRAPH500_RUNNER}" 10 16 2D 1)

# --- 3. --help prints usage and runs nothing ----------------------------
run(s3 0 "${GRAPH500_RUNNER}" --help)
if(NOT s3_out MATCHES "usage:" OR s3_out MATCHES "Graph500-style run")
  message(FATAL_ERROR "cli_smoke: graph500_runner --help should print "
                      "usage and run nothing\nstdout:\n${s3_out}")
endif()

# --- 4. --spare-ranks reaches graph500_runner's engine ------------------
set(dump "${OUT_DIR}/dead.json")
run(s4 2 "${GRAPH500_RUNNER}" 10 16 1d 2 --fault-plan=kill:2@level3
    --checkpoint-every=1 --recover-policy=spare --spare-ranks=0
    "--flight-out=${dump}")
if(NOT "${s4_out}${s4_err}" MATCHES "rank failure")
  message(FATAL_ERROR "cli_smoke: the unrecovered kill exited 2 without "
                      "naming the rank failure\nstdout:\n${s4_out}\n"
                      "stderr:\n${s4_err}")
endif()
if(NOT EXISTS "${dump}")
  message(FATAL_ERROR "cli_smoke: the unrecovered kill wrote no flight "
                      "dump ${dump}")
endif()

# --- 5. bench_suite takes engine flags in both spellings ----------------
run(s5 0 "${BENCH_SUITE}" --cores 64 --direction hybrid --alpha 8
    --algos=2d --wires=auto --scales=14 --list)
if(NOT s5_out MATCHES "rmat14_2d_hybrid_c64")
  message(FATAL_ERROR "cli_smoke: bench_suite --list did not name "
                      "rmat14_2d_hybrid_c64\nstdout:\n${s5_out}")
endif()

# --- 6. a malformed list entry is a bad value ---------------------------
run(s6 2 "${BENCH_SUITE}" --scales=14x --list)
if(NOT s6_err MATCHES "bench_suite: bad value")
  message(FATAL_ERROR "cli_smoke: --scales=14x exited 2 without "
                      "\"bench_suite: bad value\"\nstderr:\n${s6_err}")
endif()

# --- 7. a run-time fault is one error line, not the usage text ----------
run(s7 2 "${BFS_TOOL}" --algo 1d --scale 10 --cores 16 --corrupt-rate 0.95
    "--flight-out=${OUT_DIR}/corrupt.json")
if(NOT s7_err MATCHES "error: [^\n]*unrecoverable payload-corruption" OR
   s7_err MATCHES "usage:")
  message(FATAL_ERROR "cli_smoke: the unrecoverable corruption should exit "
                      "2 with its error line and no usage text\nstderr:\n"
                      "${s7_err}")
endif()

# --- 8. zero or negative sources is an error, not an empty run ---------
run(s8a 2 "${GRAPH500_RUNNER}" 8 64 2d 0)
run(s8b 2 "${GRAPH500_RUNNER}" 8 64 2d -3)
run(s8c 2 "${BFS_TOOL}" --algo 2d --scale 8 --cores 4 --sources 0)
if(NOT s8a_err MATCHES "nsources" OR NOT s8b_err MATCHES "nsources" OR
   NOT s8c_err MATCHES "--sources" OR s8a_out MATCHES "validated")
  message(FATAL_ERROR "cli_smoke: a source count below 1 should exit 2 "
                      "naming it, before any run
stdout:
${s8a_out}
"
                      "stderr:
${s8a_err}
${s8b_err}
${s8c_err}")
endif()

# --- 9. out-of-range engine flags are errors, not clamped ---------------
run(s9a 2 "${BFS_TOOL}" --algo 2d --scale 8 --cores 4 --fail-rate 2)
run(s9b 2 "${GRAPH500_RUNNER}" 8 16 1d 1 --threads=-2)
run(s9c 2 "${BENCH_SUITE}" --checkpoint-every=-1 --list)
if(NOT s9a_err MATCHES "--fail-rate" OR NOT s9b_err MATCHES "--threads" OR
   NOT s9c_err MATCHES "--checkpoint-every")
  message(FATAL_ERROR "cli_smoke: an out-of-range engine flag should exit "
                      "2 naming it
stderr:
${s9a_err}
${s9b_err}
"
                      "${s9c_err}")
endif()

# --- 10. core and repeat counts below 1 are errors, not 1-core runs ------
set(suite_dir "${OUT_DIR}/s10")
run(s10a 2 "${BFS_TOOL}" --algo 1d --scale 8 --cores -4 --sources 1)
run(s10b 2 "${BFS_TOOL}" --algo 1d --scale 8 --cores 0 --sources 1)
run(s10c 2 "${GRAPH500_RUNNER}" 8 0 1d 1)
run(s10d 2 "${BENCH_SUITE}" --cores=-4 --scales=10 --algos=1d --wires=raw
    "--out-dir=${suite_dir}")
run(s10e 2 "${BENCH_SUITE}" --sources=0 --scales=10 --algos=1d --wires=raw
    "--out-dir=${suite_dir}")
run(s10f 2 "${BENCH_SUITE}" --reps=0 --scales=10 --algos=1d --wires=raw
    "--out-dir=${suite_dir}")
file(GLOB s10_records "${suite_dir}/BENCH_*.json")
if(NOT s10a_err MATCHES "--cores" OR NOT s10b_err MATCHES "--cores" OR
   NOT s10c_err MATCHES "cores" OR NOT s10d_err MATCHES "--cores" OR
   NOT s10e_err MATCHES "--sources" OR NOT s10f_err MATCHES "--reps" OR
   "${s10a_out}${s10b_out}${s10c_out}" MATCHES "graph:|largest component" OR
   s10_records)
  message(FATAL_ERROR "cli_smoke: a count below 1 should exit 2 naming "
                      "it, before any graph or record
stdout:
${s10a_out}${s10c_out}
"
                      "stderr:
${s10a_err}
${s10b_err}
${s10c_err}
"
                      "${s10d_err}
${s10e_err}
${s10f_err}
records: ${s10_records}")
endif()

# --- 11. a hybrid run never uses more cores than it was asked for ------
foreach(algo 1d-hybrid 2d-hybrid)
  run(s11 0 "${BFS_TOOL}" --algo ${algo} --scale 8 --cores 4
      --machine hopper --sources 1)
  if(NOT s11_out MATCHES "4 cores used")
    message(FATAL_ERROR "cli_smoke: ${algo} on 4 hopper cores should "
                        "report \"4 cores used\"\nstdout:\n${s11_out}")
  endif()
endforeach()

# --- 12. a generator scale outside [1, 40] is rejected up front -------
foreach(bad "--gen;er;--scale;64" "--gen;webcrawl;--scale;-1")
  run(s12 2 "${BFS_TOOL}" ${bad} --algo 1d --cores 4 --sources 1)
  if(NOT s12_err MATCHES "--scale" OR s12_out MATCHES "graph:")
    message(FATAL_ERROR "cli_smoke: ${bad} should exit 2 naming --scale "
                        "before generating\nstdout:\n${s12_out}\n"
                        "stderr:\n${s12_err}")
  endif()
endforeach()

message(STATUS "cli_smoke passed: malformed numbers, unknown algorithms, "
               "source counts below 1, out-of-range engine flags and "
               "generator scales exit "
               "2, --help runs nothing, engine flags reach "
               "graph500_runner and bench_suite in both spellings, and a "
               "run-time fault prints one error line")
