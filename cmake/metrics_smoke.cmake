# End-to-end smoke for the driver's metrics export: --metrics-out in
# both formats, and the --no-profile off switch. Invoked by ctest with
# -DSIM=<path-to-actyp_sim> -DOUT=<scratch-dir>.
set(args --scenario fig6_pool_size --json
    --seed 3 --machines 100 --clients 2 --time-scale 0.05)

execute_process(COMMAND ${SIM} ${args}
                --metrics-out ${OUT}/metrics.jsonl
                OUTPUT_VARIABLE profiled RESULT_VARIABLE jsonl_rc)
if(NOT jsonl_rc EQUAL 0)
  message(FATAL_ERROR "jsonl export run failed with ${jsonl_rc}")
endif()
file(READ ${OUT}/metrics.jsonl jsonl)
if(NOT jsonl MATCHES "\"scenario\":\"fig6_pool_size\"")
  message(FATAL_ERROR "jsonl export missing the scenario cell:\n${jsonl}")
endif()
if(NOT jsonl MATCHES "\"pool_select_p95_s\":")
  message(FATAL_ERROR "jsonl export missing stage percentiles:\n${jsonl}")
endif()

execute_process(COMMAND ${SIM} ${args} --no-profile
                --metrics-out ${OUT}/metrics.prom --metrics-format prom
                OUTPUT_VARIABLE unprofiled RESULT_VARIABLE prom_rc)
if(NOT prom_rc EQUAL 0)
  message(FATAL_ERROR "prom export run failed with ${prom_rc}")
endif()
file(READ ${OUT}/metrics.prom prom)
if(NOT prom MATCHES "# TYPE actyp_mean_s gauge")
  message(FATAL_ERROR "prom export missing typed gauge:\n${prom}")
endif()
if(NOT prom MATCHES "# EOF")
  message(FATAL_ERROR "prom export missing EOF trailer:\n${prom}")
endif()
if(prom MATCHES "pool_select")
  message(FATAL_ERROR "--no-profile export still has stage metrics:\n${prom}")
endif()
if(unprofiled MATCHES "_p95_s")
  message(FATAL_ERROR "--no-profile report still has stage metrics")
endif()

# With interval snapshots, prom still types each metric once: the
# snapshots' and the report cells' samples share one group.
execute_process(COMMAND ${SIM} ${args} --metrics-interval 0.5
                --metrics-out ${OUT}/snapshots.prom --metrics-format prom
                OUTPUT_QUIET RESULT_VARIABLE snapshot_rc)
if(NOT snapshot_rc EQUAL 0)
  message(FATAL_ERROR "prom snapshot run failed with ${snapshot_rc}")
endif()
file(READ ${OUT}/snapshots.prom snapshots)
string(REGEX MATCHALL "# TYPE actyp_completed gauge" typed "${snapshots}")
list(LENGTH typed typed_count)
if(NOT typed_count EQUAL 1)
  message(FATAL_ERROR "actyp_completed typed ${typed_count} times:\n"
          "${snapshots}")
endif()
if(NOT snapshots MATCHES "actyp_completed\\{scenario=\"stream\""
   OR NOT snapshots MATCHES "actyp_completed\\{scenario=\"fig6_pool_size\"")
  message(FATAL_ERROR "prom file lacks snapshot or report samples:\n"
          "${snapshots}")
endif()
message(STATUS "metrics export OK in both formats; --no-profile clean")
