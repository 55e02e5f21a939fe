# e2e_smoke: run every workload BENCHMARK.json lists at smoke size, once
# end to end and once traced, and fail on a validation failure, a missing
# metric, malformed results/trace JSON, a stdout result line without
# exactly the four contract keys, or a virtual-time digest that differs
# between the two runs. Finally e2e_compare must read the results and
# judge a set against itself as unchanged.
#
# Inputs: E2E_BENCH, E2E_COMPARE, BENCHMARK_JSON, OUT_DIR.
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})
file(READ ${BENCHMARK_JSON} bench)

function(json_names list out)
  string(JSON n LENGTH "${bench}" ${list})
  math(EXPR last "${n} - 1")
  set(names "")
  foreach(i RANGE ${last})
    string(JSON name GET "${bench}" ${list} ${i} name)
    list(APPEND names ${name})
  endforeach()
  set(${out} ${names} PARENT_SCOPE)
endfunction()

json_names(workloads workloads)
json_names(end_to_end e2e_metrics)
json_names(per_layer layer_metrics)

function(check_result file metrics out_digest)
  file(READ ${file} doc)
  string(JSON correct ERROR_VARIABLE err GET "${doc}" correct)
  if(err)
    message(FATAL_ERROR "${file}: malformed results JSON: ${err}")
  endif()
  string(JSON failed GET "${doc}" failed)
  if(NOT correct OR NOT failed EQUAL 0)
    message(FATAL_ERROR "${file}: correct=${correct} failed=${failed}")
  endif()
  foreach(m ${metrics})
    string(JSON unit ERROR_VARIABLE err GET "${doc}" metrics ${m} unit)
    if(err)
      message(FATAL_ERROR "${file}: metric ${m} missing")
    endif()
  endforeach()
  string(JSON digest GET "${doc}" virtual_digest)
  set(${out_digest} ${digest} PARENT_SCOPE)
endfunction()

set(e2e_files "")
foreach(w ${workloads})
  foreach(mode 0 1)
    set(stem ${OUT_DIR}/${w}-${mode})
    set(cmd ${E2E_BENCH} --workload ${w} --smoke --trace ${mode}
            --out ${stem}.json)
    if(mode EQUAL 1)
      list(APPEND cmd --trace-out ${stem}-trace.json)
    endif()
    execute_process(COMMAND ${cmd} RESULT_VARIABLE rc
                    OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${w} --trace ${mode}: exit ${rc}\n${stderr}")
    endif()
    string(STRIP "${stdout}" stdout)
    string(REGEX REPLACE ".*\n" "" line "${stdout}")
    string(JSON keys ERROR_VARIABLE err LENGTH "${line}")
    if(err OR NOT keys EQUAL 4)
      message(FATAL_ERROR "${w}: bad result line '${line}' ${err}")
    endif()
  endforeach()
  check_result(${OUT_DIR}/${w}-0.json "${e2e_metrics}" digest_e2e)
  check_result(${OUT_DIR}/${w}-1.json "${layer_metrics}" digest_traced)
  if(NOT digest_e2e STREQUAL digest_traced)
    message(FATAL_ERROR
            "${w}: traced run changed the searches (${digest_e2e} vs "
            "${digest_traced})")
  endif()
  file(READ ${OUT_DIR}/${w}-1-trace.json trace)
  string(JSON events ERROR_VARIABLE err LENGTH "${trace}" traceEvents)
  if(err OR events LESS 2)
    message(FATAL_ERROR "${w}: malformed host trace: ${err}")
  endif()
  list(APPEND e2e_files ${OUT_DIR}/${w}-0.json)
endforeach()

execute_process(COMMAND ${E2E_COMPARE} --benchmark ${BENCHMARK_JSON}
                        ${e2e_files} -- ${e2e_files}
                RESULT_VARIABLE rc OUTPUT_VARIABLE table)
message("${table}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "e2e_compare judged a result set against itself: ${rc}")
endif()
