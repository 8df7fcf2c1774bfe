# Asserts a `pgl_layout --list-*` contract that CI's smoke loops depend on:
# exit status 0, nothing on stderr, every registered name on stdout —
# exactly one per line, nothing else (no banner) — so that
# `for name in $(pgl_layout --list-backends)` iterates real names. Every
# REQUIRED name must be listed and no RETIRED one.
#
# Run as: cmake -DTOOL=<path-to-pgl_layout> -DFLAG=--list-backends
#               -DREQUIRED=a,b,c [-DRETIRED=x,y] -P check_list_names.cmake

foreach(var TOOL FLAG REQUIRED)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "check_list_names.cmake needs -D${var}=...")
  endif()
endforeach()
string(REPLACE "," ";" required_names "${REQUIRED}")
string(REPLACE "," ";" retired_names "${RETIRED}")

execute_process(
  COMMAND ${TOOL} ${FLAG}
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE rc)

if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${FLAG} exited ${rc} (expected 0)")
endif()
if(NOT err STREQUAL "")
  message(FATAL_ERROR "${FLAG} wrote to stderr: [${err}]")
endif()

string(REGEX REPLACE "\n$" "" trimmed "${out}")
if(trimmed STREQUAL "")
  message(FATAL_ERROR "${FLAG} printed nothing")
endif()
string(REPLACE "\n" ";" lines "${trimmed}")

foreach(line IN LISTS lines)
  if(NOT line MATCHES "^[a-z0-9][a-z0-9-]*$")
    message(FATAL_ERROR "non-name output line: [${line}]")
  endif()
endforeach()

foreach(required IN LISTS required_names)
  list(FIND lines ${required} idx)
  if(idx EQUAL -1)
    message(FATAL_ERROR "${FLAG}: built-in name missing: ${required}")
  endif()
endforeach()
foreach(retired IN LISTS retired_names)
  list(FIND lines ${retired} idx)
  if(NOT idx EQUAL -1)
    message(FATAL_ERROR "${FLAG}: retired name still listed: ${retired}")
  endif()
endforeach()

list(LENGTH lines n)
message(STATUS "${FLAG} contract OK (${n} names)")
