# Checks the three mlmd::simd table objects (DESIGN.md Sec. 12) with
# objdump -d. Fails on:
#   * any fused multiply-add or multiply-subtract (vf[n]m{add,sub}*,
#     which covers vfmaddsub and vfmsubadd): the bit-identity contract
#     keeps every multiply and add separate;
#   * an AVX2 object with no ymm instruction, or an AVX-512 object with no
#     zmm instruction, when REQUIRE_WIDE is on (an optimizing build
#     without sanitizers): the tables exist as the vectorizer's widening
#     of the generic templates, so an object without wide registers means
#     the vectorizer was switched off for it;
#   * a missing objdump, or a missing object.
#
#   cmake -DOBJDUMP=<objdump> -DOBJECTS=<obj>|<obj>|... -DAVX2=ON|OFF
#         -DAVX512=ON|OFF -DREQUIRE_WIDE=ON|OFF -P tests/lint_simd_objects.cmake
#
# AVX2 / AVX512 say whether the compiler took that table's -m flags.
cmake_minimum_required(VERSION 3.16)
if(NOT OBJDUMP OR NOT EXISTS "${OBJDUMP}")
  message(FATAL_ERROR "lint_simd_objects: no objdump (OBJDUMP='${OBJDUMP}')")
endif()

string(REPLACE "|" ";" _objects "${OBJECTS}")
set(_failed "")
foreach(_kind scalar avx2 avx512)
  set(_obj "")
  foreach(_o ${_objects})
    if(_o MATCHES "/kernels_${_kind}\\.cpp\\.o(bj)?$")
      set(_obj "${_o}")
    endif()
  endforeach()
  if(_obj STREQUAL "" OR NOT EXISTS "${_obj}")
    message(FATAL_ERROR "lint_simd_objects: no object for kernels_${_kind}.cpp")
  endif()
  execute_process(COMMAND "${OBJDUMP}" -d --no-show-raw-insn "${_obj}"
                  RESULT_VARIABLE _rc OUTPUT_VARIABLE _asm ERROR_VARIABLE _err)
  if(NOT _rc EQUAL 0)
    message(FATAL_ERROR "lint_simd_objects: objdump ${_obj} failed: ${_err}")
  endif()
  string(REGEX MATCHALL "\tvfn?m(add|sub)[a-z0-9]*" _fused "${_asm}")
  list(LENGTH _fused _nfused)
  if(_nfused GREATER 0)
    list(REMOVE_DUPLICATES _fused)
    string(REPLACE "\t" "" _fused "${_fused}")
    list(JOIN _fused ", " _names)
    list(APPEND _failed
         "kernels_${_kind}.cpp: ${_nfused} fused instructions (${_names})")
  endif()
  string(REGEX MATCHALL "%ymm" _ymm "${_asm}")
  string(REGEX MATCHALL "%zmm" _zmm "${_asm}")
  list(LENGTH _ymm _nymm)
  list(LENGTH _zmm _nzmm)
  message(STATUS "kernels_${_kind}.cpp: ${_nfused} fused, ${_nymm} ymm, "
                 "${_nzmm} zmm operands")
  if(REQUIRE_WIDE AND _kind STREQUAL "avx2" AND AVX2 AND _nymm EQUAL 0)
    list(APPEND _failed "kernels_avx2.cpp: no ymm instruction")
  endif()
  if(REQUIRE_WIDE AND _kind STREQUAL "avx512" AND AVX512 AND _nzmm EQUAL 0)
    list(APPEND _failed "kernels_avx512.cpp: no zmm instruction")
  endif()
endforeach()

if(_failed)
  string(REPLACE ";" "\n  " _msg "${_failed}")
  message(FATAL_ERROR "lint_simd_objects:\n  ${_msg}")
endif()
