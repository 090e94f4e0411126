# Plans every registered sweep with --dry-run (which runs nothing) and
# requires stdout byte-identical to the checked-in plan. This pins the
# invocation-global cell numbering (the merge key) and every grid's axis
# shape.
#
#   cmake -DSWEEP=<mtr_sweep> -DGOLDEN=<all_dry_run.txt> -DOUT=<file> \
#         -P golden_dry_run.cmake
execute_process(
  COMMAND ${SWEEP} --all --dry-run
  OUTPUT_FILE ${OUT}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mtr_sweep --all --dry-run exited ${rc}")
endif()
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
  RESULT_VARIABLE differs)
if(NOT differs EQUAL 0)
  message(FATAL_ERROR "${OUT} differs from ${GOLDEN}")
endif()
