# Chrome-trace export contract, run as a ctest:
#
#   1. `pgl_layout --trace out.json` on a whole-genome workload (with
#      --partition --multilevel, so the full span tree exists) must exit 0
#      and write the trace file.
#   2. The file must be well-formed JSON — validated with python3 when
#      available — with a non-empty traceEvents array containing the
#      nested multilevel stage spans (coarsen/layout/interpolate/refine),
#      per-component spans, and a nonzero engine.updates counter in the
#      embedded telemetry snapshot.
#   3. A telemetry-disabled build still writes a valid document; the
#      content assertions key off its "telemetryEnabled" flag.
#
# Expects -DTOOL=<pgl_layout> -DGENERATOR=<whole_genome_layout>
#         -DWORKDIR=<scratch dir>
foreach(var TOOL GENERATOR WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_trace_json.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
  COMMAND ${GENERATOR} ${WORKDIR} 3 0.0002 cpu-pipelined
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "whole_genome_layout failed: ${err}")
endif()

set(trace "${WORKDIR}/trace.json")
execute_process(
  COMMAND ${TOOL} -i ${WORKDIR}/whole_genome.gfa -o ${WORKDIR}/out.lay
          --iters 3 --factor 0.5 --seed 42
          --partition --component-workers 2 --multilevel
          --trace ${trace}
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "pgl_layout --trace run failed: ${err}")
endif()
if(NOT EXISTS "${trace}")
  message(FATAL_ERROR "--trace did not write ${trace}")
endif()

find_program(PYTHON3 python3)
if(PYTHON3)
  # Full structural validation: parse, then assert the span tree and the
  # embedded counter snapshot — only when telemetry was compiled in (the
  # writer says so itself via "telemetryEnabled").
  file(WRITE "${WORKDIR}/validate.py" "
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc['traceEvents']
assert isinstance(events, list), 'traceEvents is not a list'
if not doc.get('telemetryEnabled', False):
    print('telemetry compiled out; well-formedness only')
    sys.exit(0)
names = [e.get('name', '') for e in events]
for stage in ('parse', 'coarsen', 'layout', 'interpolate', 'refine',
              'stitch', 'component', 'render'):
    assert stage in names, f'missing span {stage!r} in trace'
phases = {e.get('ph') for e in events}
assert 'X' in phases, 'no duration events'
counters = doc['telemetry']['counters']
assert counters.get('engine.updates', 0) > 0, 'engine.updates is zero'
assert counters.get('partition.components', 0) > 0, 'no component count'
print(f'{len(events)} trace events OK')
")
  execute_process(
    COMMAND ${PYTHON3} "${WORKDIR}/validate.py" "${trace}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "trace validation failed: ${out}${err}")
  endif()
  message(STATUS "trace JSON validated: ${out}")
else()
  # No python3: fall back to shape checks that catch gross breakage.
  file(READ "${trace}" doc)
  if(NOT doc MATCHES "\"traceEvents\"")
    message(FATAL_ERROR "trace file has no traceEvents key")
  endif()
  message(STATUS "python3 not found; trace shape check only")
endif()
