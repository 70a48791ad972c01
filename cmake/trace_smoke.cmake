# End-to-end smoke for the tracing + interval-snapshot layer:
#   - --trace-out emits well-formed Chrome trace-event JSON containing
#     replica_sync spans on a replicated WAN scenario,
#   - the trace file is byte-identical between --jobs 1 and --jobs 4,
#   - --metrics-interval writes >= 2 snapshots ahead of the final report
#     cells in the same file; that file is byte-identical across --jobs
#     and, on the LP-parallel big_wan, across --cell-jobs,
#   - the --metrics-interval and --telemetry-out samplers share one
#     chunk loop without moving each other's samples or the report.
# Invoked by ctest with -DSIM=<path-to-actyp_sim> -DOUT=<scratch-dir>.
# time-scale 0.3 keeps the run small but still reaches the monitor's
# first 5 s sweep tick (monitor cadence is not scaled), so the trace
# gets monitor_sweep spans as well as replica_sync ones.
set(args --scenario wan_partition_heal --json
    --seed 7 --machines 160 --clients 4 --time-scale 0.3)

execute_process(COMMAND ${SIM} ${args} --jobs 1
                --trace-out ${OUT}/trace_serial.json
                OUTPUT_VARIABLE serial RESULT_VARIABLE serial_rc)
if(NOT serial_rc EQUAL 0)
  message(FATAL_ERROR "serial trace run failed with ${serial_rc}")
endif()
file(READ ${OUT}/trace_serial.json trace)
if(NOT trace MATCHES "\"traceEvents\":")
  message(FATAL_ERROR "trace output is not trace-event JSON:\n${trace}")
endif()
if(NOT trace MATCHES "\"ph\":\"X\"")
  message(FATAL_ERROR "trace output has no complete spans:\n${trace}")
endif()
if(NOT trace MATCHES "\"name\":\"replica_sync\"")
  message(FATAL_ERROR "trace output has no replica_sync spans")
endif()
if(NOT trace MATCHES "\"name\":\"monitor_sweep\"")
  message(FATAL_ERROR "trace output has no monitor_sweep spans")
endif()

execute_process(COMMAND ${SIM} ${args} --jobs 4
                --trace-out ${OUT}/trace_parallel.json
                OUTPUT_VARIABLE parallel RESULT_VARIABLE parallel_rc)
if(NOT parallel_rc EQUAL 0)
  message(FATAL_ERROR "parallel trace run failed with ${parallel_rc}")
endif()
file(READ ${OUT}/trace_parallel.json trace_parallel)
if(NOT trace STREQUAL trace_parallel)
  message(FATAL_ERROR "--jobs 4 trace differs from --jobs 1")
endif()
if(NOT serial STREQUAL parallel)
  message(FATAL_ERROR "--jobs 4 report differs from --jobs 1 with tracing")
endif()

# --trace-filter narrows the file: a stage criterion keeps only traces
# (and background lanes) containing that stage, so request lanes with
# other stages disappear while the filtered stage survives.
execute_process(COMMAND ${SIM} ${args} --jobs 1
                --trace-out ${OUT}/trace_filtered.json
                --trace-filter stage=replica_sync
                RESULT_VARIABLE filter_rc)
if(NOT filter_rc EQUAL 0)
  message(FATAL_ERROR "--trace-filter run failed with ${filter_rc}")
endif()
file(READ ${OUT}/trace_filtered.json filtered)
if(NOT filtered MATCHES "\"name\":\"replica_sync\"")
  message(FATAL_ERROR "filtered trace lost the requested stage")
endif()
if(filtered MATCHES "\"name\":\"monitor_sweep\"")
  message(FATAL_ERROR "filtered trace kept a non-matching background lane")
endif()

# A malformed filter spec is rejected at flag-parse time.
execute_process(COMMAND ${SIM} ${args}
                --trace-out ${OUT}/trace_bad.json
                --trace-filter stage=bogus
                ERROR_VARIABLE filter_err RESULT_VARIABLE bad_filter_rc)
if(bad_filter_rc EQUAL 0)
  message(FATAL_ERROR "--trace-filter stage=bogus should fail")
endif()

# --trace-out must refuse to run blind.
execute_process(COMMAND ${SIM} ${args} --no-profile
                --trace-out ${OUT}/trace_none.json
                ERROR_VARIABLE trace_err RESULT_VARIABLE noprofile_rc)
if(noprofile_rc EQUAL 0)
  message(FATAL_ERROR "--trace-out with --no-profile should fail")
endif()

# Snapshots: a long-enough cell must write interval snapshots (the
# "stream" cells) ahead of the final report cells.
execute_process(COMMAND ${SIM} ${args}
                --metrics-out ${OUT}/stream.jsonl --metrics-interval 2
                OUTPUT_VARIABLE streamed RESULT_VARIABLE stream_rc)
if(NOT stream_rc EQUAL 0)
  message(FATAL_ERROR "snapshot run failed with ${stream_rc}")
endif()
file(STRINGS ${OUT}/stream.jsonl stream_lines REGEX "\"scenario\":\"stream\"")
list(LENGTH stream_lines snapshots)
if(snapshots LESS 2)
  message(FATAL_ERROR
          "expected >= 2 interval snapshots, got ${snapshots}")
endif()
file(READ ${OUT}/stream.jsonl stream)
if(NOT stream MATCHES "\"scenario\":\"wan_partition_heal\"")
  message(FATAL_ERROR "metrics file missing the final report cells")
endif()

# The metrics file with snapshots is byte-identical across --jobs.
set(fig4_args --scenario fig4_pools_lan --seed 3 --machines 200
    --clients 2 --time-scale 0.2)
foreach(jobs 1 4)
  execute_process(COMMAND ${SIM} ${fig4_args} --jobs ${jobs}
                  --metrics-interval 0.5
                  --metrics-out ${OUT}/fig4_metrics${jobs}.jsonl
                  OUTPUT_QUIET RESULT_VARIABLE fig4_rc)
  if(NOT fig4_rc EQUAL 0)
    message(FATAL_ERROR "fig4 --jobs ${jobs} snapshot run failed "
            "with ${fig4_rc}")
  endif()
endforeach()
file(READ ${OUT}/fig4_metrics1.jsonl fig4_metrics1)
file(READ ${OUT}/fig4_metrics4.jsonl fig4_metrics4)
if(NOT fig4_metrics1 STREQUAL fig4_metrics4)
  message(FATAL_ERROR "fig4 --metrics-out differs between --jobs 1 and 4")
endif()

# ... and across --cell-jobs on the LP-parallel big_wan, with at least
# two snapshots for each report cell.
set(wan_args --scenario big_wan --machines 2000 --clients 24
    --time-scale 0.2 --metrics-interval 0.5)
foreach(jobs 1 2)
  execute_process(COMMAND ${SIM} ${wan_args} --cell-jobs ${jobs}
                  --metrics-out ${OUT}/wan_metrics${jobs}.jsonl
                  OUTPUT_QUIET ERROR_VARIABLE wan_err
                  RESULT_VARIABLE wan_rc)
  if(NOT wan_rc EQUAL 0)
    message(FATAL_ERROR "big_wan --cell-jobs ${jobs} snapshot run failed "
            "with ${wan_rc}:\n${wan_err}")
  endif()
  if(wan_err MATCHES "streaming disabled")
    message(FATAL_ERROR "big_wan --cell-jobs ${jobs} disabled the "
            "snapshots:\n${wan_err}")
  endif()
endforeach()
file(READ ${OUT}/wan_metrics1.jsonl wan_metrics1)
file(READ ${OUT}/wan_metrics2.jsonl wan_metrics2)
if(NOT wan_metrics1 STREQUAL wan_metrics2)
  message(FATAL_ERROR
          "big_wan --metrics-out differs between --cell-jobs 1 and 2")
endif()
file(STRINGS ${OUT}/wan_metrics1.jsonl wan_snapshots
     REGEX "\"scenario\":\"stream\"")
file(STRINGS ${OUT}/wan_metrics1.jsonl wan_cells
     REGEX "\"scenario\":\"big_wan\"")
list(LENGTH wan_snapshots wan_snapshot_count)
list(LENGTH wan_cells wan_cell_count)
math(EXPR wan_needed "2 * ${wan_cell_count}")
if(wan_cell_count EQUAL 0 OR wan_snapshot_count LESS wan_needed)
  message(FATAL_ERROR "big_wan: ${wan_snapshot_count} snapshots for "
          "${wan_cell_count} report cells, need >= 2 per cell")
endif()

# The two samplers share Measure's chunk loop: adding --metrics-interval
# leaves the telemetry file and the report untouched.
execute_process(COMMAND ${SIM} ${fig4_args} --json
                OUTPUT_VARIABLE fig4_plain RESULT_VARIABLE fig4_plain_rc)
execute_process(COMMAND ${SIM} ${fig4_args} --json
                --telemetry-out ${OUT}/fig4_tele_alone.jsonl
                --telemetry-interval 0.5
                OUTPUT_VARIABLE fig4_alone RESULT_VARIABLE fig4_alone_rc)
execute_process(COMMAND ${SIM} ${fig4_args} --json
                --telemetry-out ${OUT}/fig4_tele_both.jsonl
                --telemetry-interval 0.5 --metrics-interval 0.3
                --metrics-out ${OUT}/fig4_metrics_both.jsonl
                OUTPUT_VARIABLE fig4_both RESULT_VARIABLE fig4_both_rc)
if(NOT fig4_plain_rc EQUAL 0 OR NOT fig4_alone_rc EQUAL 0
   OR NOT fig4_both_rc EQUAL 0)
  message(FATAL_ERROR "sampler runs failed "
          "(rc=${fig4_plain_rc}/${fig4_alone_rc}/${fig4_both_rc})")
endif()
file(READ ${OUT}/fig4_tele_alone.jsonl fig4_tele_alone)
file(READ ${OUT}/fig4_tele_both.jsonl fig4_tele_both)
if(NOT fig4_tele_alone STREQUAL fig4_tele_both)
  message(FATAL_ERROR "--metrics-interval changed the telemetry file")
endif()
if(NOT fig4_plain STREQUAL fig4_alone OR NOT fig4_plain STREQUAL fig4_both)
  message(FATAL_ERROR "sampling changed the report")
endif()
message(STATUS "trace output well-formed + jobs-identical; "
        "${snapshots} snapshots; metrics file identical across --jobs "
        "and --cell-jobs (${wan_snapshot_count} big_wan snapshots)")
