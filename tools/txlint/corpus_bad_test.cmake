# ctest case: every rule that `txlint --list-rules` names must fire in the
# bad corpus, so a rule whose fixture stops firing, or is deleted, fails
# here instead of hiding behind the other rules' findings.
#
#   cmake -DTXLINT=<txlint binary> -DCORPUS=<corpus/bad dir> -P corpus_bad_test.cmake
execute_process(COMMAND "${TXLINT}" --list-rules RESULT_VARIABLE rc OUTPUT_VARIABLE listing)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "txlint --list-rules exited ${rc}")
endif()
execute_process(COMMAND "${TXLINT}" "${CORPUS}" RESULT_VARIABLE rc OUTPUT_VARIABLE findings)
if(NOT rc EQUAL 1)
  message(FATAL_ERROR "txlint on the bad corpus exited ${rc}, not 1:\n${findings}")
endif()
# Each rule name starts a line; its summary follows on an indented line.
string(REGEX MATCHALL "(^|\n)[^ \n]+" names "${listing}")
if(NOT names)
  message(FATAL_ERROR "txlint --list-rules named no rule")
endif()
foreach(name IN LISTS names)
  string(STRIP "${name}" name)
  string(FIND "${findings}" "[${name}]" at)
  if(at EQUAL -1)
    message(FATAL_ERROR "rule ${name} fired nowhere in the bad corpus:\n${findings}")
  endif()
endforeach()
