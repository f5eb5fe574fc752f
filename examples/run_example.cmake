# Runs one example for its ctest smoke (examples/CMakeLists.txt):
#   cmake -DEXAMPLE=<binary> [-DPATTERN=<regex>] -P run_example.cmake
# Fails unless the example exits 0 and, with PATTERN, prints a match.
execute_process(COMMAND "${EXAMPLE}" OUTPUT_VARIABLE out
                RESULT_VARIABLE rc)
message("${out}")
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${EXAMPLE} exited with ${rc}")
endif()
if(PATTERN AND NOT out MATCHES "${PATTERN}")
    message(FATAL_ERROR "${EXAMPLE} printed no line matching '${PATTERN}'")
endif()
