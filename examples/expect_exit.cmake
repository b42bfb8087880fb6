# Runs a program and requires both its exit code and a pattern in its
# standard output: PASS_REGULAR_EXPRESSION alone ignores the exit code.
#
#   cmake -DPROGRAM=<exe> [-DARG1=<a>] [-DARG2=<b>] [-DARG3=<c>]
#         -DEXIT=<code> -DEXPECT=<regex> -P expect_exit.cmake

set(Args)
foreach(A ARG1 ARG2 ARG3)
  if(DEFINED ${A})
    list(APPEND Args "${${A}}")
  endif()
endforeach()
execute_process(COMMAND ${PROGRAM} ${Args}
                OUTPUT_VARIABLE Out RESULT_VARIABLE Rc)
if(NOT Rc EQUAL EXIT)
  message(FATAL_ERROR "${PROGRAM} ${Args} exited with ${Rc}, not ${EXIT}:\n"
                      "${Out}")
endif()
if(NOT Out MATCHES "${EXPECT}")
  message(FATAL_ERROR "${PROGRAM} ${Args} printed no match for "
                      "'${EXPECT}':\n${Out}")
endif()
