# Runs trace_inspector on a trace file and as its self-demo, and
# requires the same report: the file's output must equal the demo's
# after the demo's banner line and the blank line that follows it.
#
#   cmake -DINSPECTOR=<trace_inspector> -DTRACE=<v2 trace of the demo>
#         -P trace_inspector_file.cmake

execute_process(COMMAND ${INSPECTOR} ${TRACE} 2
                OUTPUT_VARIABLE File RESULT_VARIABLE FileRc)
execute_process(COMMAND ${INSPECTOR}
                OUTPUT_VARIABLE Demo RESULT_VARIABLE DemoRc)
if(NOT FileRc EQUAL 0 OR NOT DemoRc EQUAL 0)
  message(FATAL_ERROR "trace_inspector failed (file: ${FileRc}, "
                      "demo: ${DemoRc})\n${File}")
endif()

string(FIND "${Demo}" "\n\n" Banner)
math(EXPR Report "${Banner} + 2")
string(SUBSTRING "${Demo}" ${Report} -1 DemoReport)
if(NOT File STREQUAL DemoReport)
  message(FATAL_ERROR "report of ${TRACE} differs from the self-demo's:\n"
                      "${File}\n--- self-demo ---\n${DemoReport}")
endif()
