# webcc-figures flag table: every malformed value must exit 2 with one line
# on stderr before any figure runs, never a signal, an abort, or a thread
# storm. Run by ctest as
#   cmake -DFIGURES=<webcc-figures> -P figures_flags.cmake
cmake_minimum_required(VERSION 3.16)

set(cases --jobs=-1 --jobs=4097 --jobs=99999999999999999999 --jobs=two --only=nope
    --only=fig2, --csv-dir=/nonexistent/webcc-figures --bogus positional)
foreach(arg IN LISTS cases)
  execute_process(COMMAND "${FIGURES}" "${arg}" RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  string(REGEX MATCHALL "\n" newlines "${err}")
  list(LENGTH newlines lines)
  if(NOT rc STREQUAL "2" OR NOT lines EQUAL 1 OR NOT out STREQUAL "")
    message(SEND_ERROR "webcc-figures ${arg}: exit '${rc}', stderr '${err}', "
            "${lines} stderr lines, stdout '${out}'")
  endif()
endforeach()
