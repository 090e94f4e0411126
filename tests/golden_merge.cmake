# Merges the checked-in fig04 golden as a one-shard set and requires both
# outputs byte-identical to it. This pins both scanners, the cell-key round
# trip and the recomputed `record:"cell"` line.
#
#   cmake -DMERGE=<mtr_merge> -DGOLDEN=<tests/golden> -DOUT=<dir> \
#         -P golden_merge.cmake
execute_process(
  COMMAND ${MERGE} --csv ${OUT}/fig04.csv --jsonl ${OUT}/fig04.jsonl
          ${GOLDEN}/fig04.csv ${GOLDEN}/fig04.jsonl
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mtr_merge exited ${rc}")
endif()
foreach(ext csv jsonl)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/fig04.${ext}
            ${GOLDEN}/fig04.${ext}
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "merged fig04.${ext} differs from the golden")
  endif()
endforeach()
