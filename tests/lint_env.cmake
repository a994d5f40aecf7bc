# Fails when a C++ source under src/, apps/, bench/ or examples/ reads an
# MLMD_* environment variable other than the three that have no flag to
# twin: MLMD_NUM_THREADS (pool size before any flag is parsed), MLMD_SIMD
# (dispatch target) and MLMD_COMM_TIMEOUT_MS (SimComm progress timeout).
# Every other setting is a --flag of the binary that reads it; an env
# variable beside the flag is a second way to set the same value.
#
# A read is a string literal naming an MLMD_* variable ("MLMD_X"), or a
# getenv call whose argument is not a string literal (its name cannot be
# checked). Each allowed name must still be read somewhere, so the list
# cannot outlive its variables.
#
#   cmake -DROOT=<repository root> -P tests/lint_env.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT ROOT)
  message(FATAL_ERROR "lint_env: pass -DROOT=<repository root>")
endif()

set(_allowed MLMD_NUM_THREADS MLMD_SIMD MLMD_COMM_TIMEOUT_MS)
set(_literal "\"MLMD_[A-Za-z0-9_]+\"")
set(_computed "getenv[ \t]*\\([ \t]*[^\" \t]")
set(_hits "")
set(_seen "")
set(_nfiles 0)
foreach(_dir src apps bench examples)
  file(GLOB_RECURSE _files
       "${ROOT}/${_dir}/*.cpp" "${ROOT}/${_dir}/*.hpp"
       "${ROOT}/${_dir}/*.cc" "${ROOT}/${_dir}/*.h")
  foreach(_file ${_files})
    math(EXPR _nfiles "${_nfiles} + 1")
    file(STRINGS "${_file}" _lines REGEX "${_literal}|${_computed}")
    foreach(_line ${_lines})
      if(_line MATCHES "${_computed}")
        string(APPEND _hits "\n  ${_file}: ${_line}")
      endif()
      string(REGEX MATCHALL "${_literal}" _names "${_line}")
      foreach(_quoted ${_names})
        string(REPLACE "\"" "" _name "${_quoted}")
        if(_name IN_LIST _allowed)
          list(APPEND _seen ${_name})
        else()
          string(APPEND _hits "\n  ${_file}: ${_line}")
        endif()
      endforeach()
    endforeach()
  endforeach()
endforeach()

if(_nfiles EQUAL 0)
  message(FATAL_ERROR "lint_env: no C++ sources under ${ROOT}")
endif()
if(_hits)
  message(FATAL_ERROR "MLMD_* environment read beside the flags; add a "
                      "--flag to the binary instead:${_hits}")
endif()
foreach(_name ${_allowed})
  if(NOT _name IN_LIST _seen)
    message(FATAL_ERROR "lint_env: ${_name} is allowed but no longer read; "
                        "drop it from the list in tests/lint_env.cmake")
  endif()
endforeach()
message(STATUS "lint_env: ${_nfiles} files read only ${_allowed}")
