# --record, --replay, --bisect and --watch refuse every output flag they do
# not write, with usage and exit 2, and run nothing: no output file appears.
# --watch writes --prom-out, so it keeps that one.
#
#   cmake -DCLI=path/to/example_sim_cli -DWORK=path/to/workdir -P sim_cli_outputs.cmake
file(REMOVE_RECURSE ${WORK})
file(MAKE_DIRECTORY ${WORK})
set(runs "--record=${WORK}/r.rgcrec" "--replay=${WORK}/r.rgcrec"
         "--bisect=${WORK}/a.rgcrec,${WORK}/b.rgcrec" "--watch")
set(outputs "--trace-out=${WORK}/t.json" "--trace-jsonl=${WORK}/t.jsonl"
            "--report-json=${WORK}/rep.json" "--ledger-jsonl=${WORK}/l.jsonl"
            "--explain-cycle" "--report" "--prom-out=${WORK}/m.prom")
foreach(run ${runs})
  foreach(output ${outputs})
    if(run STREQUAL "--watch" AND output MATCHES "^--prom-out")
      continue()
    endif()
    execute_process(COMMAND ${CLI} --processes 3 ${run} ${output}
                    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
    if(NOT rc EQUAL 2 OR NOT out MATCHES "usage:")
      message(FATAL_ERROR "${run} ${output}: exit ${rc}, stdout:\n${out}${err}")
    endif()
    file(GLOB written ${WORK}/*)
    if(written)
      message(FATAL_ERROR "${run} ${output} wrote ${written}")
    endif()
  endforeach()
endforeach()
