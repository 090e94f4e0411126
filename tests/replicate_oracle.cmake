# Runs `mtr_sweep fig07 fig09 fig11 --scale 0.02 --seeds 3 --threads 2`
# twice, the second time with --trace-dir, and requires every CSV/JSONL
# file of the two runs to be byte-identical. A traced grid simulates every
# replicate and the sinks encode each one; an untraced grid simulates a
# seed-invariant cell once and copies its result into the other seeds, and
# the sinks copy the bytes of a replicate body that repeats the previous
# one. Equal files show that both shortcuts write what full runs write.
# The golden sweeps run one seed, so they never reach either shortcut.
#
#   cmake -DSWEEP=<mtr_sweep> -DOUT=<output dir> -P replicate_oracle.cmake
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

set(sweeps fig07 fig09 fig11)
foreach(run copied simulated)
  set(trace_args)
  if(run STREQUAL "simulated")
    set(trace_args --trace-dir ${OUT}/traces)
  endif()
  execute_process(
    COMMAND ${SWEEP} ${sweeps} --scale 0.02 --seeds 3 --threads 2
            --out-dir ${OUT}/${run} ${trace_args} --quiet --no-progress
    OUTPUT_QUIET
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "mtr_sweep (${run}) exited ${rc}")
  endif()
endforeach()
file(REMOVE_RECURSE ${OUT}/traces)  # tens of MB that nothing reads

foreach(sweep IN LISTS sweeps)
  foreach(ext csv jsonl)
    set(name ${sweep}.${ext})
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/copied/${name}
              ${OUT}/simulated/${name}
      RESULT_VARIABLE differs)
    if(NOT differs EQUAL 0)
      message(FATAL_ERROR "${name}: the untraced run's records differ from "
                          "the traced run's (${OUT}/copied vs ${OUT}/simulated)")
    endif()
  endforeach()
endforeach()
