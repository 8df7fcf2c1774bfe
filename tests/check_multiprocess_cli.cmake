# Multi-process partition execution contract, run as a ctest:
#
#   1. Byte parity across executors: `--partition` output must be
#      byte-identical across the {thread, process} executors at 1/2/4
#      workers, for cpu-pipelined — the determinism contract the process
#      executor ships under (same mixed per-component seeds, same
#      run_component_graph leaf, any concurrency).
#   2. Crash containment: a worker killed mid-run (PGL_COMPONENT_WORKER_CRASH)
#      must fail only its component — the parent exits non-zero with a
#      diagnostic naming the component, and no partial or stale .lay is
#      published (a pre-existing output file is left untouched).
#
# Expects -DTOOL=<pgl_layout> -DGENERATOR=<whole_genome_layout>
#         -DWORKDIR=<scratch dir>
foreach(var TOOL GENERATOR WORKDIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_multiprocess_cli.cmake needs -D${var}=...")
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
set(gfa "${WORKDIR}/whole_genome.gfa")
set(common --iters 3 --factor 0.5 --seed 42 --partition)

# --- 1. executor x worker-count byte parity --------------------------------
foreach(backend cpu-pipelined)
  set(ref "${WORKDIR}/${backend}_ref.lay")
  execute_process(
    COMMAND ${TOOL} -i ${gfa} -o ${ref} ${common} --backend ${backend}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${backend} reference run failed: ${err}")
  endif()
  foreach(n 1 2 4)
    foreach(executor thread process)
      set(par --executor ${executor} --component-workers ${n})
      set(out "${WORKDIR}/${backend}_${executor}_${n}.lay")
      execute_process(
        COMMAND ${TOOL} -i ${gfa} -o ${out} ${common} --backend ${backend}
                ${par}
        RESULT_VARIABLE rc ERROR_VARIABLE err)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${backend} ${executor} x${n} run failed: ${err}")
      endif()
      execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${ref} ${out}
        RESULT_VARIABLE rc)
      if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${backend}: ${executor} executor with ${n} workers is not "
            "byte-identical to the single-worker thread run")
      endif()
    endforeach()
  endforeach()
  message(STATUS "${backend}: thread/process x 1/2/4 all byte-identical")
endforeach()

# --- 2. crash containment --------------------------------------------------
set(crash_out "${WORKDIR}/crash.lay")
file(WRITE ${crash_out} "stale-sentinel")
execute_process(
  COMMAND ${CMAKE_COMMAND} -E env PGL_COMPONENT_WORKER_CRASH=/c0.lay
          ${TOOL} -i ${gfa} -o ${crash_out} ${common} --backend cpu-pipelined
          --executor process --component-workers 2
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "parent exited 0 despite a crashed worker")
endif()
if(NOT err MATCHES "component 0")
  message(FATAL_ERROR
      "crash diagnostic does not name the failed component; stderr: ${err}")
endif()
if(NOT err MATCHES "signal")
  message(FATAL_ERROR
      "crash diagnostic does not mention the signal; stderr: ${err}")
endif()
file(READ ${crash_out} sentinel)
if(NOT sentinel STREQUAL "stale-sentinel")
  message(FATAL_ERROR
      "crashed run touched the output file (must stay unpublished)")
endif()
message(STATUS "crash containment OK: nonzero exit, diagnostic, no output")
