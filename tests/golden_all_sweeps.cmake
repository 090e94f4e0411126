# Runs every registered sweep (mtr_sweep --all --scale 0.05 --seeds 1) at
# --threads 1 and 4 under --engine event and slice. All four runs must write
# CSV/JSONL whose SHA-256 digests equal the checked-in all_digests.txt, one
# line per file. The event engine's --metrics must also show no
# counter-class delta against the checked-in all_metrics.json under
# `mtr_inspect --compare`; timing-class values never fail it. Kernel
# counters are thread-invariant but not engine-invariant, so only the event
# engine has a metrics reference.
#
#   cmake -DSWEEP=<mtr_sweep> -DINSPECT=<mtr_inspect> -DGOLDEN=<golden dir> \
#         -DOUT=<output dir> [-DREGENERATE=ON] -P golden_all_sweeps.cmake
#
# A change that moves a result byte or a counter on purpose is a behaviour
# change: regenerate both files from the repo root with
#
#   cmake -DSWEEP=build/bench/mtr_sweep -DINSPECT=build/bench/mtr_inspect -DGOLDEN=tests/golden -DOUT=build/golden_all -DREGENERATE=ON -P tests/golden_all_sweeps.cmake
#
# (with MTR_BENCH_POP unset) and show the old-vs-new `--compare` output.
#
# fig10's NIC flood draws next_exponential through libm's `log`, so the
# digests assume that CI and local builds link the same libm.
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

set(runs event_1 event_4 slice_1 slice_4)
foreach(run IN LISTS runs)
  string(REPLACE "_" ";" parts ${run})
  list(GET parts 0 engine)
  list(GET parts 1 threads)
  set(metrics_args)
  if(engine STREQUAL "event")
    set(metrics_args --metrics ${OUT}/${run}.metrics.json)
  endif()
  execute_process(
    COMMAND ${SWEEP} --all --scale 0.05 --seeds 1 --threads ${threads}
            --engine ${engine} --out-dir ${OUT}/${run} ${metrics_args}
            --quiet --no-progress
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mtr_sweep --all (${run}) exited ${rc}")
  endif()

  # One "<sha256>  <file>" line per artifact, in name order (sha256sum's
  # format).
  file(GLOB artifacts RELATIVE ${OUT}/${run} ${OUT}/${run}/*.csv ${OUT}/${run}/*.jsonl)
  list(SORT artifacts)
  set(digests "")
  foreach(name IN LISTS artifacts)
    file(SHA256 ${OUT}/${run}/${name} sum)
    string(APPEND digests "${sum}  ${name}\n")
  endforeach()
  file(WRITE ${OUT}/${run}.digests.txt "${digests}")

  if(REGENERATE AND run STREQUAL "event_1")
    file(WRITE ${GOLDEN}/all_digests.txt "${digests}")
    configure_file(${OUT}/${run}.metrics.json ${GOLDEN}/all_metrics.json COPYONLY)
    message(STATUS "regenerated ${GOLDEN}/all_digests.txt and all_metrics.json")
  endif()

  file(READ ${GOLDEN}/all_digests.txt expected)
  if(NOT digests STREQUAL expected)
    message(FATAL_ERROR "${run}: artifact digests differ from "
                        "${GOLDEN}/all_digests.txt; see ${OUT}/${run}.digests.txt")
  endif()

  if(engine STREQUAL "event")
    execute_process(
      COMMAND ${INSPECT} --compare ${OUT}/${run}.metrics.json ${GOLDEN}/all_metrics.json
      OUTPUT_FILE ${OUT}/${run}.compare.txt
      RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      message(FATAL_ERROR "${run}: metrics counters differ from "
                          "${GOLDEN}/all_metrics.json; see ${OUT}/${run}.compare.txt")
    endif()
  endif()
endforeach()
