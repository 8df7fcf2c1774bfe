# CLI-level ingestion contract, run as a ctest:
#
#   1. Checked numeric option parsing: garbage / out-of-range values for
#      --iters, --threads, --component-workers must exit non-zero with a
#      diagnostic naming the flag (std::atoi silently made them 0).
#   2. Graph-cache byte equivalence: laying out a whole-genome GFA and
#      laying out its .pgg cache (--save-graph, then -i) must produce
#      byte-identical .lay files, with and without --partition; so must the
#      cache under a name without the .pgg extension (detected by magic).
#   3. A W-record-only, CRLF-terminated GFA (tests/data/walks_crlf.gfa)
#      must ingest and lay out end-to-end.
#   4. `--timing` on a flat run lists only the stages that ran (no
#      subgraph, coarsen, refine or stitch line), and a `reclaim` line only
#      when the run replaced its output. In a -DPGL_TELEMETRY=OFF build it
#      prints the compiled-out line and the total, and no stage line.
#   5. A non-finite --factor exits 2 naming the flag, and a finite factor
#      whose update count does not fit 64 bits fails the run instead of
#      hanging or running "0 updates".
#   6. --pin and --numa (worker pinning, NUMA placement) and --gpu=SPEC
#      (--gpu takes no value) are unknown options.
#
# Expects -DTOOL=<pgl_layout> -DGENERATOR=<whole_genome_layout>
#         -DDATA=<tests/data dir> -DWORKDIR=<scratch dir>
#         -DTELEMETRY=<the build's PGL_TELEMETRY>
foreach(var TOOL GENERATOR DATA WORKDIR TELEMETRY)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_ingest_cli.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# --- 1. numeric option error paths -----------------------------------------
foreach(bad_args
    "--iters|banana"
    "--iters|-3"
    "--iters|99999999999999999999"
    "--threads|2x"
    "--component-workers|many"
    "--factor|fast"
    "--seed|0xg")
  string(REPLACE "|" ";" bad_list "${bad_args}")
  list(GET bad_list 0 flag)
  execute_process(
    COMMAND ${TOOL} -i in.gfa -o out.lay --partition ${bad_list}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "pgl_layout accepted bad value for ${flag}: ${bad_args}")
  endif()
  if(NOT err MATCHES "${flag}")
    message(FATAL_ERROR
        "diagnostic for ${bad_args} does not name the flag; stderr: ${err}")
  endif()
endforeach()
message(STATUS "numeric option error paths OK")

# --- 2. GFA vs .pgg cache byte equivalence ---------------------------------
execute_process(
  COMMAND ${GENERATOR} ${WORKDIR} 3 0.0002 cpu-pipelined
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "whole_genome_layout failed: ${err}")
endif()
set(gfa "${WORKDIR}/whole_genome.gfa")

# Convert-only mode: --save-graph without -o writes the cache and exits.
execute_process(
  COMMAND ${TOOL} -i ${gfa} --save-graph ${WORKDIR}/genome.pgg
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--save-graph convert run failed: ${err}")
endif()

set(common --iters 3 --factor 0.5 --seed 42)
foreach(mode plain partition)
  if(mode STREQUAL "partition")
    set(extra --partition --component-workers 2)
  else()
    set(extra "")
  endif()
  execute_process(
    COMMAND ${TOOL} -i ${gfa} -o ${WORKDIR}/${mode}_gfa.lay ${common} ${extra}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "GFA ${mode} run failed: ${err}")
  endif()
  execute_process(
    COMMAND ${TOOL} -i ${WORKDIR}/genome.pgg
            -o ${WORKDIR}/${mode}_pgg.lay ${common} ${extra}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR ".pgg ${mode} run failed: ${err}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            ${WORKDIR}/${mode}_gfa.lay ${WORKDIR}/${mode}_pgg.lay
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR
        "${mode}: layout from .pgg cache differs from layout from GFA")
  endif()
  message(STATUS "${mode}: GFA and .pgg layouts are byte-identical")
endforeach()

# Detected by magic, not extension: the cache renamed to genome.bin must
# load as a cache too.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E copy ${WORKDIR}/genome.pgg ${WORKDIR}/genome.bin)
execute_process(
  COMMAND ${TOOL} -i ${WORKDIR}/genome.bin -o ${WORKDIR}/renamed_pgg.lay
          ${common}
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "-i with a renamed .pgg failed: ${err}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          ${WORKDIR}/renamed_pgg.lay ${WORKDIR}/plain_gfa.lay
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "layout from a renamed .pgg differs")
endif()

# --- 3. W-record-only CRLF GFA lays out end-to-end -------------------------
execute_process(
  COMMAND ${TOOL} -i ${DATA}/walks_crlf.gfa -o ${WORKDIR}/walks.lay
          --iters 3 --factor 2 --stress
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "W-only CRLF GFA failed to lay out: ${err}")
endif()
if(NOT EXISTS "${WORKDIR}/walks.lay")
  message(FATAL_ERROR "W-only run produced no layout file")
endif()
message(STATUS "W-record-only CRLF GFA laid out end-to-end")

# --- 4. --timing lists only the stages that ran -----------------------------
execute_process(
  COMMAND ${TOOL} -i ${gfa} -o ${WORKDIR}/timing.lay ${common} --timing
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "flat --timing run failed: ${err}")
endif()
if(TELEMETRY)
  if(NOT err MATCHES "timing: layout " OR NOT err MATCHES "timing: total ")
    message(FATAL_ERROR "flat --timing lacks its layout/total lines: ${err}")
  endif()
  if(err MATCHES "timing: (subgraph|coarsen|interpolate|refine|stitch) ")
    message(FATAL_ERROR "flat --timing printed a stage that did not run: ${err}")
  endif()
  message(STATUS "flat --timing prints no subgraph/coarsen/refine/stitch line")
  if(err MATCHES "timing: reclaim ")
    message(FATAL_ERROR "a run to a fresh path printed a reclaim line: ${err}")
  endif()
  # Overwriting the output frees the old file's blocks on a reclaim thread,
  # off the publish path; --timing waits for it and reports it.
  execute_process(
    COMMAND ${TOOL} -i ${gfa} -o ${WORKDIR}/timing.lay ${common} --timing
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 0 OR NOT err MATCHES "timing: publish "
     OR NOT err MATCHES "timing: reclaim ")
    message(FATAL_ERROR "an overwriting --timing run lacks its publish/reclaim lines: ${err}")
  endif()
  message(STATUS "an overwriting --timing run reports the reclaim")
else()
  # Telemetry compiled out: no stage spans, so no stage line at all.
  if(NOT err MATCHES "timing: stage spans compiled out"
     OR NOT err MATCHES "timing: total ")
    message(FATAL_ERROR
        "--timing without telemetry lacks its compiled-out/total lines: ${err}")
  endif()
  set(stages
      "parse|subgraph|coarsen|layout|interpolate|refine|stitch|metrics|render|publish")
  if(err MATCHES "timing: (${stages}) ")
    message(FATAL_ERROR
        "--timing without telemetry printed a stage line: ${err}")
  endif()
  message(STATUS "--timing without telemetry prints only the total")
endif()

# --- 5. non-finite and oversized --factor ---------------------------------
foreach(factor nan inf -inf)
  execute_process(
    COMMAND ${TOOL} -i ${DATA}/walks_crlf.gfa -o ${WORKDIR}/bad_factor.lay
            --iters 3 --factor ${factor}
    TIMEOUT 20
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "--factor: expected a finite number")
    message(FATAL_ERROR
        "--factor ${factor}: want exit 2 naming the flag, got ${rc}: ${err}")
  endif()
endforeach()
execute_process(
  COMMAND ${TOOL} -i ${DATA}/walks_crlf.gfa -o ${WORKDIR}/big_factor.lay
          --iters 3 --factor 1e300
  TIMEOUT 20
  RESULT_VARIABLE rc ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR NOT err MATCHES "must be below 2\\^64")
  message(FATAL_ERROR "--factor 1e300: want exit 1, got ${rc}: ${err}")
endif()
if(EXISTS "${WORKDIR}/bad_factor.lay" OR EXISTS "${WORKDIR}/big_factor.lay")
  message(FATAL_ERROR "a rejected --factor still wrote a layout")
endif()
message(STATUS "non-finite and oversized --factor rejected")

# --- 6. --pin, --numa and --gpu=SPEC are unknown ----------------------------
foreach(removed "--pin" "--numa|auto" "--gpu=a100")
  string(REPLACE "|" ";" removed_list "${removed}")
  list(GET removed_list 0 flag)
  execute_process(
    COMMAND ${TOOL} -i ${DATA}/walks_crlf.gfa -o ${WORKDIR}/placed.lay
            ${removed_list}
    RESULT_VARIABLE rc ERROR_VARIABLE err)
  if(NOT rc EQUAL 2 OR NOT err MATCHES "unknown option: ${flag}")
    message(FATAL_ERROR "${flag}: want exit 2 as unknown, got ${rc}: ${err}")
  endif()
endforeach()
message(STATUS "--pin, --numa and --gpu=a100 are unknown options")
