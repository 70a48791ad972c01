# Fleet-tool smoke: `gen` is deterministic for a seed, writes the pinned
# snapshot bytes and rejects a malformed seed; `info` summarizes a
# snapshot, including machines whose state was edited in the text.
# Invoked by ctest with -DFLEET=<path-to-actyp_fleet_tool> -DOUT=<build-dir>.
execute_process(COMMAND ${FLEET} gen 2000 8 5
                OUTPUT_VARIABLE first RESULT_VARIABLE first_rc)
execute_process(COMMAND ${FLEET} gen 2000 8 5
                OUTPUT_VARIABLE second RESULT_VARIABLE second_rc)
if(NOT first_rc EQUAL 0 OR NOT second_rc EQUAL 0)
  message(FATAL_ERROR "gen failed (rc=${first_rc}, ${second_rc})")
endif()
if(first STREQUAL "")
  message(FATAL_ERROR "gen produced no snapshot")
endif()
if(NOT first STREQUAL second)
  message(FATAL_ERROR "gen 2000 8 5 differs between two runs")
endif()
# The snapshot line format is a contract: this seed's snapshot is
# pinned byte for byte.
string(LENGTH "${first}" size)
string(SHA256 digest "${first}")
set(pinned 69344bbf966c89acb3c095d85f6025d9498c89de436d8cb0848f507fedbfb977)
if(NOT size EQUAL 366324 OR NOT digest STREQUAL pinned)
  message(FATAL_ERROR "gen 2000 8 5 wrote ${size} bytes, sha256 ${digest}; "
          "expected 366324 bytes, sha256 ${pinned}")
endif()

file(WRITE ${OUT}/fleet_smoke.db "${first}")
execute_process(COMMAND ${FLEET} info ${OUT}/fleet_smoke.db
                OUTPUT_VARIABLE info RESULT_VARIABLE info_rc)
if(NOT info_rc EQUAL 0)
  message(FATAL_ERROR "info failed (rc=${info_rc}):\n${info}")
endif()
foreach(line "machines : 2000 " "states   : up=2000\n"
        "clusters : 8 distinct" "free     : 2000\n")
  string(FIND "${info}" "${line}" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "info lacks '${line}':\n${info}")
  endif()
endforeach()

# Flip the 200 machines whose id ends in 7 to down.
string(REGEX REPLACE "\n([0-9]*7);up;" "\n\\1;down;" flipped "${first}")
file(WRITE ${OUT}/fleet_smoke_down.db "${flipped}")
execute_process(COMMAND ${FLEET} info ${OUT}/fleet_smoke_down.db
                OUTPUT_VARIABLE info RESULT_VARIABLE info_rc)
if(NOT info_rc EQUAL 0)
  message(FATAL_ERROR "info on the edited snapshot failed (rc=${info_rc})")
endif()
string(FIND "${info}" "states   : down=200 up=1800\n" at)
if(at EQUAL -1)
  message(FATAL_ERROR "info does not count the down machines:\n${info}")
endif()

# A seed that is not a non-negative integer is a usage error.
foreach(seed 7junk xyz -5)
  execute_process(COMMAND ${FLEET} gen 3 1 ${seed}
                  OUTPUT_VARIABLE out ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1 OR NOT out STREQUAL "" OR NOT err MATCHES "usage:")
    message(FATAL_ERROR "gen 3 1 ${seed}: rc=${rc}, expected a usage error "
            "on stderr and no snapshot:\n${out}${err}")
  endif()
endforeach()
message(STATUS "fleet tool OK: gen repeatable and pinned, info counts, "
        "bad seeds rejected")
