# ctest driver: `hotpath` takes at most one argument, its output path.  Run
# with an option or with two arguments in an empty directory, it must exit
# non-zero with a usage line before any scenario runs, and create no file.
#
#   cmake -DHOTPATH=<hotpath binary> -DWORK_DIR=<scratch dir> -P hotpath_usage_test.cmake
foreach(args "--help" "-h" "a.json;b.json")
  file(REMOVE_RECURSE "${WORK_DIR}")
  file(MAKE_DIRECTORY "${WORK_DIR}")
  execute_process(COMMAND "${HOTPATH}" ${args}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "hotpath ${args} exited 0")
  endif()
  if(NOT err MATCHES "usage: hotpath")
    message(FATAL_ERROR "hotpath ${args} printed no usage line (exit ${rc}): ${err}")
  endif()
  file(GLOB left "${WORK_DIR}/*")
  if(left)
    message(FATAL_ERROR "hotpath ${args} created ${left}")
  endif()
endforeach()
file(REMOVE_RECURSE "${WORK_DIR}")
