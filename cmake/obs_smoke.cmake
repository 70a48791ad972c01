# Observability gate, end to end:
#  - --telemetry-out emits well-formed gauge samples and the file (plus
#    the --flight-out dump and the report itself) is byte-identical
#    across --jobs values, also when cells share a seed and a size,
#  - arming the recorder/sampler leaves the report byte-identical to a
#    plain run,
#  - a clear message rejects a non-positive --metrics-interval at the
#    flag and at the config-file key,
#  - the hostile chaos sweep writes a post-mortem dump next to its repro
#    bundle and actyp_postmortem names the first implicated event,
#  - actyp_tracediff diffs two --trace-out files on shared request ids.
# Invoked by ctest with -DSIM=<actyp_sim> -DCHAOS=<actyp_chaos>
# -DPOSTMORTEM=<actyp_postmortem> -DTRACEDIFF=<actyp_tracediff>
# -DOUT=<build-dir>.
set(work ${OUT}/obs_smoke)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

set(base_args --scenario fig6_pool_size --json --machines 200 --clients 4
    --time-scale 0.2)

# --- telemetry + flight: deterministic across --jobs, inert on report ---
execute_process(COMMAND ${SIM} ${base_args}
                OUTPUT_VARIABLE plain RESULT_VARIABLE plain_rc)
if(NOT plain_rc EQUAL 0)
  message(FATAL_ERROR "plain run failed (rc=${plain_rc}):\n${plain}")
endif()

execute_process(COMMAND ${SIM} ${base_args} --jobs 1
                --telemetry-out ${work}/tele1.jsonl
                --flight-out ${work}/flight1.jsonl
                OUTPUT_VARIABLE obs1 RESULT_VARIABLE obs1_rc)
execute_process(COMMAND ${SIM} ${base_args} --jobs 2
                --telemetry-out ${work}/tele2.jsonl
                --flight-out ${work}/flight2.jsonl
                OUTPUT_VARIABLE obs2 RESULT_VARIABLE obs2_rc)
if(NOT obs1_rc EQUAL 0 OR NOT obs2_rc EQUAL 0)
  message(FATAL_ERROR "telemetry runs failed "
          "(rc=${obs1_rc}/${obs2_rc}):\n${obs1}\n${obs2}")
endif()
if(NOT plain STREQUAL obs1)
  message(FATAL_ERROR "arming telemetry/flight changed the report:\n"
          "plain: ${plain}\nobs:   ${obs1}")
endif()
if(NOT obs1 STREQUAL obs2)
  message(FATAL_ERROR "report differs across --jobs:\n${obs1}\n${obs2}")
endif()

file(READ ${work}/tele1.jsonl tele1)
file(READ ${work}/tele2.jsonl tele2)
if(NOT tele1 STREQUAL tele2)
  message(FATAL_ERROR "--telemetry-out differs across --jobs")
endif()
if(NOT tele1 MATCHES "\"scenario\":\"telemetry\"")
  message(FATAL_ERROR "telemetry output missing sample cells:\n${tele1}")
endif()
if(NOT tele1 MATCHES "\"t_s\":" OR NOT tele1 MATCHES "\"completed\":"
   OR NOT tele1 MATCHES "\"pending_events\":")
  message(FATAL_ERROR "telemetry output missing gauges:\n${tele1}")
endif()

file(READ ${work}/flight1.jsonl flight1)
file(READ ${work}/flight2.jsonl flight2)
if(NOT flight1 STREQUAL flight2)
  message(FATAL_ERROR "--flight-out differs across --jobs")
endif()
if(NOT flight1 MATCHES "\"kind\":\"msg_send\"")
  message(FATAL_ERROR "flight dump missing events:\n${flight1}")
endif()

# --- sink drain order: cells sharing a seed and a size ---
# fig4 and fig5 pinned to one seed deposit cells whose telemetry series
# have equal seeds and equal lengths; with --jobs 2 the two scenarios
# finish in either order, so the files only match across --jobs if the
# sinks break that tie on content.
set(tie_args --scenario fig4_pools_lan --scenario fig5_pools_wan --seed 7
    --machines 200 --clients 4 --time-scale 0.05)
foreach(jobs 1 2)
  execute_process(COMMAND ${SIM} ${tie_args} --jobs ${jobs}
                  --telemetry-out ${work}/tie_tele${jobs}.jsonl
                  --flight-out ${work}/tie_flight${jobs}.jsonl
                  OUTPUT_VARIABLE tie${jobs} RESULT_VARIABLE tie${jobs}_rc)
  if(NOT tie${jobs}_rc EQUAL 0)
    message(FATAL_ERROR "fig4+fig5 --jobs ${jobs} run failed "
            "(rc=${tie${jobs}_rc}):\n${tie${jobs}}")
  endif()
endforeach()
foreach(kind tele flight)
  file(READ ${work}/tie_${kind}1.jsonl tie_${kind}1)
  file(READ ${work}/tie_${kind}2.jsonl tie_${kind}2)
  if(NOT tie_${kind}1 STREQUAL tie_${kind}2)
    message(FATAL_ERROR "fig4+fig5 --seed 7: the ${kind} file differs "
            "between --jobs 1 and --jobs 2")
  endif()
endforeach()

# --- --metrics-interval validation: flag and config-file key ---
execute_process(COMMAND ${SIM} ${base_args} --metrics-interval 0
                ERROR_VARIABLE bad_flag RESULT_VARIABLE bad_flag_rc)
if(bad_flag_rc EQUAL 0 OR NOT bad_flag MATCHES "must be a positive")
  message(FATAL_ERROR "--metrics-interval 0 not rejected clearly "
          "(rc=${bad_flag_rc}):\n${bad_flag}")
endif()
file(WRITE ${work}/bad_interval.conf
     "scenario=fig6_pool_size\nmetrics-interval=-2\n")
execute_process(COMMAND ${SIM} --config ${work}/bad_interval.conf
                ERROR_VARIABLE bad_key RESULT_VARIABLE bad_key_rc)
if(bad_key_rc EQUAL 0 OR NOT bad_key MATCHES "must be a positive")
  message(FATAL_ERROR "config metrics-interval=-2 not rejected clearly "
          "(rc=${bad_key_rc}):\n${bad_key}")
endif()

# --- chaos post-mortem: dump written, tool blames a fault event ---
execute_process(COMMAND ${CHAOS} --hostile --budget 6 --seed 1 --jobs 2
                --time-scale 0.2 --out ${work}/bundles
                OUTPUT_VARIABLE sweep RESULT_VARIABLE sweep_rc)
if(NOT sweep_rc EQUAL 1)
  message(FATAL_ERROR "hostile sweep should exit 1 with findings, got "
          "rc=${sweep_rc}:\n${sweep}")
endif()
if(NOT sweep MATCHES "post-mortem dump: ")
  message(FATAL_ERROR "hostile sweep reported no post-mortem:\n${sweep}")
endif()
file(GLOB dumps ${work}/bundles/chaos_postmortem_seed*.jsonl)
if(dumps STREQUAL "")
  message(FATAL_ERROR "hostile sweep wrote no post-mortem dump:\n${sweep}")
endif()
list(GET dumps 0 dump)
file(READ ${dump} dump_text)
if(NOT dump_text MATCHES "\"type\":\"meta\""
   OR NOT dump_text MATCHES "\"type\":\"telemetry\""
   OR NOT dump_text MATCHES "\"type\":\"flight\"")
  message(FATAL_ERROR "post-mortem dump incomplete: ${dump}")
endif()

execute_process(COMMAND ${POSTMORTEM} ${dump}
                OUTPUT_VARIABLE verdict RESULT_VARIABLE verdict_rc)
if(NOT verdict_rc EQUAL 0)
  message(FATAL_ERROR "actyp_postmortem failed (rc=${verdict_rc}):\n"
          "${verdict}")
endif()
if(NOT verdict MATCHES "first implicated event: .*loss")
  message(FATAL_ERROR "post-mortem did not blame the loss window:\n"
          "${verdict}")
endif()

# --- tracediff: per-stage deltas for shared request ids ---
# The ring must hold the whole run so both files cover the same
# request-id range (the default keeps only the most recent spans).
set(trace_args --profile-ring-capacity 500000 --trace-top 100000)
execute_process(COMMAND ${SIM} ${base_args} ${trace_args}
                --trace-out ${work}/trace_a.json
                OUTPUT_VARIABLE trace_a RESULT_VARIABLE trace_a_rc)
execute_process(COMMAND ${SIM} ${base_args} ${trace_args} --loss 0.02
                --trace-out ${work}/trace_b.json
                OUTPUT_VARIABLE trace_b RESULT_VARIABLE trace_b_rc)
if(NOT trace_a_rc EQUAL 0 OR NOT trace_b_rc EQUAL 0)
  message(FATAL_ERROR "trace runs failed "
          "(rc=${trace_a_rc}/${trace_b_rc})")
endif()
execute_process(COMMAND ${TRACEDIFF} ${work}/trace_a.json
                ${work}/trace_b.json --top 3
                OUTPUT_VARIABLE diff RESULT_VARIABLE diff_rc)
if(NOT diff_rc EQUAL 0)
  message(FATAL_ERROR "actyp_tracediff failed (rc=${diff_rc}):\n${diff}")
endif()
if(NOT diff MATCHES "requests: [1-9][0-9]* common")
  message(FATAL_ERROR "tracediff found no common requests:\n${diff}")
endif()
if(NOT diff MATCHES "per-stage span time")
  message(FATAL_ERROR "tracediff missing the per-stage table:\n${diff}")
endif()

message(STATUS "obs smoke: telemetry/flight deterministic, post-mortem "
        "blamed ${dump}, tracediff ok")
