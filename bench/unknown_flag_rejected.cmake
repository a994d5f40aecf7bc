# Runs BIN with --no-such-flag and fails unless it exits non-zero,
# names the flag after MESSAGE on stderr, and prints nothing on stdout
# (it rejected the flag before doing any work).
#   cmake -DBIN=<binary> -DMESSAGE=<text> -P unknown_flag_rejected.cmake
execute_process(COMMAND "${BIN}" --no-such-flag
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "${BIN} --no-such-flag exited 0")
endif()
string(FIND "${err}" "${MESSAGE}" at)
if(at EQUAL -1 OR NOT err MATCHES "no-such-flag")
  message(FATAL_ERROR "${BIN} --no-such-flag: stderr lacks '${MESSAGE}': ${err}")
endif()
if(NOT out STREQUAL "")
  message(FATAL_ERROR "${BIN} --no-such-flag printed before exiting: ${out}")
endif()
