# Run every gtest binary in ${TEST_BINARIES} (a semicolon list) twice with
# --gtest_list_tests and fail if any listing differs between the two runs.
# gtest_discover_tests names a value-parameterised case by its printed
# parameter, so a parameter printed as raw bytes that hold a pointer or
# stale padding gives a CTest id that changes from run to run.
cmake_policy(SET CMP0007 NEW)  # keep empty lines when splitting a listing

if(NOT DEFINED TEST_BINARIES)
  message(FATAL_ERROR "TEST_BINARIES not set")
endif()

set(unstable "")
foreach(binary IN LISTS TEST_BINARIES)
  foreach(run first second)
    execute_process(
      COMMAND ${binary} --gtest_list_tests
      RESULT_VARIABLE list_exit
      OUTPUT_VARIABLE ${run}
      ERROR_VARIABLE list_stderr)
    if(NOT list_exit EQUAL 0)
      message(FATAL_ERROR
        "${binary} --gtest_list_tests exited with ${list_exit}\n${list_stderr}")
    endif()
  endforeach()
  if(NOT first STREQUAL second)
    string(REPLACE "\n" ";" first_lines "${first}")
    string(REPLACE "\n" ";" second_lines "${second}")
    list(REMOVE_ITEM second_lines ${first_lines})
    foreach(line IN LISTS second_lines)
      string(APPEND unstable "  ${binary}: ${line}\n")
    endforeach()
  endif()
endforeach()

if(NOT unstable STREQUAL "")
  message(FATAL_ERROR "test ids differ between two listings:\n${unstable}")
endif()
list(LENGTH TEST_BINARIES n)
message(STATUS "test ids stable across two listings of ${n} binaries")
