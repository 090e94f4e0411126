# Runs the deterministic example programs and requires each one's stdout
# byte-identical to tests/golden/examples/<name>.txt. The examples drive the
# public API end to end (launch, meters, billing, the attack roster, the
# trusted metering service), so this pins what a reader of examples/ sees.
# host_metering is left out: it reads the host's own clocks.
#
#   cmake -DEXAMPLES="<path-to-quickstart>;<path-to-billing_audit>;..." \
#         -DGOLDEN=<golden dir> -DOUT=<output dir> [-DREGENERATE=ON] \
#         -P golden_examples.cmake
#
# A change that moves an example's output on purpose is a behaviour change:
# regenerate the files from the repo root with
#
#   cmake "-DEXAMPLES=build/examples/quickstart;build/examples/billing_audit;build/examples/trusted_metering;build/examples/dishonest_provider" -DGOLDEN=tests/golden/examples -DOUT=build/golden_examples -DREGENERATE=ON -P tests/golden_examples.cmake
#
# and say in the change's notes which lines moved and why.
#
# dishonest_provider and trusted_metering run the interrupt flood, whose
# arrivals draw next_exponential through libm's `log`, so the files assume
# that CI and local builds link the same libm.
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

foreach(example IN LISTS EXAMPLES)
  get_filename_component(name ${example} NAME_WE)
  execute_process(
    COMMAND ${example}
    OUTPUT_FILE ${OUT}/${name}.txt
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name} exited ${rc}")
  endif()
  if(REGENERATE)
    configure_file(${OUT}/${name}.txt ${GOLDEN}/${name}.txt COPYONLY)
    message(STATUS "regenerated ${GOLDEN}/${name}.txt")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/${name}.txt ${GOLDEN}/${name}.txt
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${name}: stdout differs from ${GOLDEN}/${name}.txt; "
                        "see ${OUT}/${name}.txt")
  endif()
endforeach()
