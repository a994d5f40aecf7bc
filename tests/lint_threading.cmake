# Fails when a C++ source under src/, apps/, bench/, examples/ or tests/
# uses the OpenMP runtime: a `#pragma omp parallel`, `for` or `task`, an
# omp_* call, or <omp.h>. par::ThreadPool is the one threading runtime
# (DESIGN.md Sec. 7). The build compiles with -fopenmp-simd, under which
# GCC drops such pragmas without a warning, so a new one would silently
# run serially. `#pragma omp simd` hints stay allowed.
#
#   cmake -DROOT=<repository root> -P tests/lint_threading.cmake
if(NOT ROOT)
  message(FATAL_ERROR "lint_threading: pass -DROOT=<repository root>")
endif()

set(_pattern "#[ \t]*pragma[ \t]+omp[ \t]+(parallel|for|task)|(^|[^A-Za-z0-9_])omp_[A-Za-z_]+[ \t]*\\(|<omp\\.h>")
set(_hits "")
foreach(_dir src apps bench examples tests)
  file(GLOB_RECURSE _files
       "${ROOT}/${_dir}/*.cpp" "${ROOT}/${_dir}/*.hpp"
       "${ROOT}/${_dir}/*.cc" "${ROOT}/${_dir}/*.h")
  foreach(_file ${_files})
    file(STRINGS "${_file}" _lines REGEX "${_pattern}")
    foreach(_line ${_lines})
      string(APPEND _hits "\n  ${_file}: ${_line}")
    endforeach()
  endforeach()
endforeach()

if(_hits)
  message(FATAL_ERROR "OpenMP runtime use found; port it to par::ThreadPool:${_hits}")
endif()
message(STATUS "lint_threading: no OpenMP runtime use")
