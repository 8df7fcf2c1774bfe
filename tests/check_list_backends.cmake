# Asserts the `pgl_layout --list-backends` contract that CI's backend smoke
# loop depends on: exit status 0, every registered engine name on stdout —
# exactly one per line, nothing else (no banner, no stderr noise) — so that
# `for backend in $(pgl_layout --list-backends)` iterates real names.
#
# Run as: cmake -DTOOL=<path-to-pgl_layout> -P check_list_backends.cmake

if(NOT TOOL)
  message(FATAL_ERROR "pass -DTOOL=<path to pgl_layout>")
endif()

execute_process(
  COMMAND ${TOOL} --list-backends
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)

if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--list-backends exited ${rc} (expected 0)")
endif()
if(NOT err STREQUAL "")
  message(FATAL_ERROR "--list-backends wrote to stderr: [${err}]")
endif()

string(REGEX REPLACE "\n$" "" trimmed "${out}")
if(trimmed STREQUAL "")
  message(FATAL_ERROR "--list-backends printed nothing")
endif()
string(REPLACE "\n" ";" lines "${trimmed}")

foreach(line IN LISTS lines)
  if(NOT line MATCHES "^[a-z0-9][a-z0-9-]*$")
    message(FATAL_ERROR "non-name output line: [${line}]")
  endif()
endforeach()

# Every built-in engine must be listed, and no retired one.
foreach(required cpu-soa cpu-pipelined gpusim-base gpusim-optimized torch)
  list(FIND lines ${required} idx)
  if(idx EQUAL -1)
    message(FATAL_ERROR "built-in backend missing from listing: ${required}")
  endif()
endforeach()
foreach(retired cpu-aos cpu-batched)
  list(FIND lines ${retired} idx)
  if(NOT idx EQUAL -1)
    message(FATAL_ERROR "retired backend still listed: ${retired}")
  endif()
endforeach()

list(LENGTH lines n)
message(STATUS "--list-backends contract OK (${n} backends)")
