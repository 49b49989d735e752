# Golden gate for webcc-figures: runs the driver and byte-compares its stdout
# and CSVs with tests/golden/figures/, which holds each figure's stdout as
# <id>.txt and every CSV the figures write.
#
# ctest runs the check (the `golden` label in tests/CMakeLists.txt):
#   cmake -DFIGURES=<webcc-figures> -DGOLDEN=<golden dir> -DWORK=<scratch dir>
#         [-DONLY="id;id"] [-DJOBS=N] -P figures_golden.cmake
# A change that moves an output on purpose regenerates the goldens in the
# same diff (and says why in CHANGES.md):
#   cmake -DFIGURES=build/bench/webcc-figures -DGOLDEN=tests/golden/figures \
#         -DUPDATE=ON -P tests/figures_golden.cmake

cmake_minimum_required(VERSION 3.16)

# The registry order of bench/webcc_figures.cc, in which a run prints.
set(all_ids fig1 fig2 fig3 fig4 fig5 fig6 fig7 fig8 fig9 table1 table2
    ablation_selftuning ablation_wire_model ablation_eviction ablation_latency
    ablation_dynamic_content ablation_fleet ablation_restart ablation_popularity_coupling)

if(UPDATE)
  file(GLOB stale "${GOLDEN}/*.txt" "${GOLDEN}/*.csv")
  if(stale)
    file(REMOVE ${stale})
  endif()
  foreach(id IN LISTS all_ids)
    execute_process(COMMAND "${FIGURES}" --only=${id} --csv-dir=${GOLDEN}
                    OUTPUT_FILE "${GOLDEN}/${id}.txt" RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "webcc-figures --only=${id}: ${rc}")
    endif()
  endforeach()
  return()
endif()

if(NOT DEFINED JOBS)
  set(JOBS 0)
endif()
set(args --csv-dir=${WORK} --jobs=${JOBS})
set(ids ${all_ids})
if(ONLY)
  string(REPLACE ";" "," only "${ONLY}")
  list(APPEND args --only=${only})
  set(ids ${ONLY})
endif()

file(REMOVE_RECURSE "${WORK}")
file(MAKE_DIRECTORY "${WORK}")
execute_process(COMMAND "${FIGURES}" ${args} OUTPUT_FILE "${WORK}/stdout.txt"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  string(JOIN " " shown ${args})
  message(FATAL_ERROR "webcc-figures ${shown}: ${rc}")
endif()

# Expected stdout: the selected figures' goldens, in registry order.
set(expected "")
foreach(id IN LISTS all_ids)
  if(id IN_LIST ids)
    file(READ "${GOLDEN}/${id}.txt" text)
    string(APPEND expected "${text}")
  endif()
endforeach()
file(WRITE "${WORK}/expected_stdout.txt" "${expected}")

set(mismatches "")
execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORK}/expected_stdout.txt" "${WORK}/stdout.txt" RESULT_VARIABLE differ)
if(differ)
  list(APPEND mismatches "stdout (${WORK}/stdout.txt vs expected_stdout.txt)")
endif()

file(GLOB written RELATIVE "${WORK}" "${WORK}/*.csv")
if(NOT ONLY)
  # A full run writes exactly the golden set of CSVs.
  file(GLOB golden_csvs RELATIVE "${GOLDEN}" "${GOLDEN}/*.csv")
  list(SORT written)
  list(SORT golden_csvs)
  if(NOT written STREQUAL golden_csvs)
    list(APPEND mismatches "CSV set: wrote [${written}], goldens [${golden_csvs}]")
  endif()
elseif(NOT written)
  list(APPEND mismatches "no CSV written")
endif()
foreach(csv IN LISTS written)
  execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                  "${GOLDEN}/${csv}" "${WORK}/${csv}" RESULT_VARIABLE differ)
  if(differ)
    list(APPEND mismatches "${csv}")
  endif()
endforeach()

if(mismatches)
  string(JOIN " " shown ${args})
  string(REPLACE ";" "\n  " listed "${mismatches}")
  message(FATAL_ERROR "webcc-figures ${shown} differs from ${GOLDEN}:\n  ${listed}\n"
          "If the change is intended, regenerate the goldens (see tests/figures_golden.cmake).")
endif()
