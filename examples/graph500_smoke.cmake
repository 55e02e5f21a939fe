# graph500_smoke: end-to-end check of the graph500_runner CLI.
#   1. A 2D run writing every artifact (--bench-out, --trace-out,
#      --flight-out, --atlas-out, --metrics-format=json) exits 0, validates
#      both search keys, and trace_lint accepts the trace and the flight
#      dump.
#   2. Flags also parse in "--key value" form: a space-form
#      --checkpoint-every 1 must reach the engine, so the kill replays
#      nothing from the per-level checkpoints.
#   3. An unrecoverable kill (the only rank of a one-rank run) exits 2,
#      names the rank failure, and still writes the flight dump.
# Invoked by ctest as
#   cmake -DGRAPH500_RUNNER=<exe> -DTRACE_LINT=<exe> -DOUT_DIR=<dir>
#         -P graph500_smoke.cmake
foreach(var GRAPH500_RUNNER TRACE_LINT OUT_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "graph500_smoke: -D${var}=... is required")
  endif()
endforeach()

set(dir "${OUT_DIR}/graph500_smoke")
file(REMOVE_RECURSE "${dir}")
file(MAKE_DIRECTORY "${dir}")

# --- 1. every artifact written and linted ------------------------------
execute_process(
  COMMAND "${GRAPH500_RUNNER}" 10 16 2d 2 "--bench-out=${dir}/bench.json"
          "--trace-out=${dir}/trace.json" "--flight-out=${dir}/flight.json"
          "--atlas-out=${dir}/atlas.json" --metrics-format=json
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "graph500_smoke: artifact run failed (rc=${run_rc})\n"
                      "stdout:\n${run_out}\nstderr:\n${run_err}")
endif()
if(NOT run_out MATCHES "validated BFS trees: 2/2")
  message(FATAL_ERROR "graph500_smoke: artifact run did not validate both "
                      "keys\nstdout:\n${run_out}")
endif()
foreach(artifact trace flight)
  execute_process(
    COMMAND "${TRACE_LINT}" "${dir}/${artifact}.json"
    RESULT_VARIABLE lint_rc
    OUTPUT_VARIABLE lint_out
    ERROR_VARIABLE lint_err)
  if(NOT lint_rc EQUAL 0)
    message(FATAL_ERROR "graph500_smoke: trace_lint rejected the ${artifact} "
                        "output (rc=${lint_rc})\nstdout:\n${lint_out}\n"
                        "stderr:\n${lint_err}")
  endif()
endforeach()

# --- 2. space-form flags reach the engine -------------------------------
execute_process(
  COMMAND "${GRAPH500_RUNNER}" 10 16 1d 2 --fault-plan=kill:2@level3
          --checkpoint-every 1
  RESULT_VARIABLE space_rc
  OUTPUT_VARIABLE space_out
  ERROR_VARIABLE space_err)
if(NOT space_rc EQUAL 0)
  message(FATAL_ERROR "graph500_smoke: space-form kill run failed "
                      "(rc=${space_rc})\nstdout:\n${space_out}\n"
                      "stderr:\n${space_err}")
endif()
if(NOT space_out MATCHES " 0 level\\(s\\) replayed")
  message(FATAL_ERROR "graph500_smoke: '--checkpoint-every 1' did not reach "
                      "the engine (a checkpoint every level replays "
                      "nothing)\nstdout:\n${space_out}")
endif()

# --- 3. an unrecoverable kill exits 2 with a flight dump -----------------
set(dump "${dir}/dead.json")
execute_process(
  COMMAND "${GRAPH500_RUNNER}" 8 1 1d 1 --fault-plan=kill:0@level1
          "--flight-out=${dump}"
  RESULT_VARIABLE dead_rc
  OUTPUT_VARIABLE dead_out
  ERROR_VARIABLE dead_err)
if(NOT dead_rc EQUAL 2)
  message(FATAL_ERROR "graph500_smoke: killing the only rank should exit 2 "
                      "(rc=${dead_rc})\nstdout:\n${dead_out}\n"
                      "stderr:\n${dead_err}")
endif()
if(NOT "${dead_out}${dead_err}" MATCHES "rank failure")
  message(FATAL_ERROR "graph500_smoke: exited 2 without naming the rank "
                      "failure\nstdout:\n${dead_out}\nstderr:\n${dead_err}")
endif()
if(NOT EXISTS "${dump}")
  message(FATAL_ERROR "graph500_smoke: died without writing the flight "
                      "dump ${dump}\nstdout:\n${dead_out}")
endif()

message(STATUS "graph500_smoke passed: artifacts linted, space-form flags "
               "parsed, unrecoverable kill dumped the flight recorder")
