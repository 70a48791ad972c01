# Asserts the two determinism contracts the driver makes:
#   - sweep parallelism: --jobs 4 emits byte-identical JSON to --jobs 1
#     (cells run on worker threads, output order is fixed), and
#   - intra-cell parallelism: on an LP-sharded scenario, --cell-jobs 2/4
#     emit byte-identical JSON to --cell-jobs 1 (the conservative-window
#     engine replays the same schedule for any worker count).
# Fixed seed; every reported metric is simulated, so no flag is needed
# for byte-identity. Invoked by ctest with -DSIM=<path-to-actyp_sim>.
set(args --scenario qm_scaling --json
    --seed 1 --machines 100 --clients 2 --time-scale 0.05)

execute_process(COMMAND ${SIM} ${args} --jobs 1
                OUTPUT_VARIABLE serial RESULT_VARIABLE serial_rc)
execute_process(COMMAND ${SIM} ${args} --jobs 4
                OUTPUT_VARIABLE parallel RESULT_VARIABLE parallel_rc)

if(NOT serial_rc EQUAL 0)
  message(FATAL_ERROR "serial run failed with ${serial_rc}")
endif()
if(NOT parallel_rc EQUAL 0)
  message(FATAL_ERROR "parallel run failed with ${parallel_rc}")
endif()
if(serial STREQUAL "")
  message(FATAL_ERROR "serial run produced no output")
endif()
if(NOT serial STREQUAL parallel)
  message(FATAL_ERROR "--jobs 4 output differs from --jobs 1:\n"
          "serial:   ${serial}\nparallel: ${parallel}")
endif()
message(STATUS "--jobs 4 output is byte-identical to --jobs 1")

set(cell_args --scenario big_wan --json
    --seed 1 --machines 2000 --clients 24 --time-scale 0.2)

execute_process(COMMAND ${SIM} ${cell_args} --cell-jobs 1
                OUTPUT_VARIABLE cell_serial RESULT_VARIABLE cell_serial_rc)
if(NOT cell_serial_rc EQUAL 0)
  message(FATAL_ERROR "--cell-jobs 1 run failed with ${cell_serial_rc}")
endif()
if(cell_serial STREQUAL "")
  message(FATAL_ERROR "--cell-jobs 1 run produced no output")
endif()
foreach(jobs 2 4)
  execute_process(COMMAND ${SIM} ${cell_args} --cell-jobs ${jobs}
                  OUTPUT_VARIABLE cell_parallel
                  RESULT_VARIABLE cell_parallel_rc)
  if(NOT cell_parallel_rc EQUAL 0)
    message(FATAL_ERROR "--cell-jobs ${jobs} run failed with "
            "${cell_parallel_rc}")
  endif()
  if(NOT cell_serial STREQUAL cell_parallel)
    message(FATAL_ERROR "--cell-jobs ${jobs} output differs from "
            "--cell-jobs 1:\nserial:   ${cell_serial}\n"
            "parallel: ${cell_parallel}")
  endif()
  message(STATUS "--cell-jobs ${jobs} output is byte-identical to "
          "--cell-jobs 1")
endforeach()
