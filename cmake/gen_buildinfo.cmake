# Build-time generator for membq_buildinfo_generated.hpp.
#
# Runs on every build (via the membq_buildinfo custom target), not at
# configure time, so the stamped git sha tracks HEAD across commits made
# after the last cmake run. The header is written to a temp file and moved
# with copy_if_different, so an unchanged tree never dirties the header's
# timestamp and never triggers a rebuild cascade.
#
# Expected -D inputs: OUT_FILE, SOURCE_DIR, COMPILER, BUILD_TYPE.

set(GIT_SHA "unknown")
set(GIT_DIRTY 0)

find_package(Git QUIET)
if(GIT_FOUND)
  execute_process(
    COMMAND "${GIT_EXECUTABLE}" -C "${SOURCE_DIR}" rev-parse --short=12 HEAD
    OUTPUT_VARIABLE _sha
    OUTPUT_STRIP_TRAILING_WHITESPACE
    RESULT_VARIABLE _rc
    ERROR_QUIET)
  if(_rc EQUAL 0 AND NOT _sha STREQUAL "")
    set(GIT_SHA "${_sha}")
    execute_process(
      COMMAND "${GIT_EXECUTABLE}" -C "${SOURCE_DIR}" status --porcelain
      OUTPUT_VARIABLE _status
      RESULT_VARIABLE _rc2
      ERROR_QUIET)
    if(_rc2 EQUAL 0 AND NOT _status STREQUAL "")
      set(GIT_DIRTY 1)
    endif()
  endif()
endif()

set(_content "// Generated by cmake/gen_buildinfo.cmake — do not edit.
#pragma once
#define MEMBQ_GIT_SHA \"${GIT_SHA}\"
#define MEMBQ_GIT_DIRTY ${GIT_DIRTY}
#define MEMBQ_COMPILER \"${COMPILER}\"
#define MEMBQ_BUILD_TYPE \"${BUILD_TYPE}\"
")

file(WRITE "${OUT_FILE}.tmp" "${_content}")
execute_process(
  COMMAND "${CMAKE_COMMAND}" -E copy_if_different
          "${OUT_FILE}.tmp" "${OUT_FILE}")
file(REMOVE "${OUT_FILE}.tmp")
