# Run determinism_probe --seed=1 and compare its output with the golden
# file. Usage:
#   cmake -DPROBE=<determinism_probe> -DGOLDEN=<golden.txt> -P determinism_golden.cmake
execute_process(COMMAND ${PROBE} --seed=1
  OUTPUT_VARIABLE actual
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "determinism_probe exited with ${rc}")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
  message(NOTICE "--- expected\n${expected}--- actual\n${actual}")
  message(FATAL_ERROR "trace hashes differ from ${GOLDEN}")
endif()
