# Run a command and require an exact exit code. ctest alone only tells
# zero from non-zero, but CI's `&&` gating relies on the severity
# mapping (0 clean or notes, 1 warnings, 2 errors or usage):
#
#   cmake -DEXPECT=<code> -P expect_exit.cmake -- CMD ARG...
set(command)
set(after_separator FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status)
if(NOT status STREQUAL "${EXPECT}")
  message(FATAL_ERROR "exit status ${status}, expected ${EXPECT}: ${command}")
endif()
