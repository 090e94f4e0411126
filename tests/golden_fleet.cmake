# Runs a 4-shard mtr_fleet over the fleet_pipeline benchmark's sweeps
# (fig04 fig05 fig06 fig11 pop_interference, --scale 0.002 --seeds 250
# --first-seed 42 --threads 1) and compares one SHA-256 per merged CSV/JSONL
# file with the checked-in fleet_digests.txt. This pins the shard planning,
# each shard's sink output and the merge that scans, checks, splices and
# renders them, at 250 copied replicates per seed-invariant cell.
#
#   cmake -DFLEET=<mtr_fleet> -DGOLDEN=<golden dir> -DOUT=<output dir> \
#         [-DREGENERATE=ON] -P golden_fleet.cmake
#
# A change that moves a merged byte on purpose is a behaviour change:
# regenerate the file from the repo root with
#
#   cmake -DFLEET=build/bench/mtr_fleet -DGOLDEN=tests/golden -DOUT=build/golden_fleet -DREGENERATE=ON -P tests/golden_fleet.cmake
#
# (with MTR_BENCH_POP unset). The digests equal perfbench/digests.json's
# fleet_pipeline entries for seed 42.
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})

execute_process(
  COMMAND ${FLEET} fig04 fig05 fig06 fig11 pop_interference --scale 0.002
          --seeds 250 --first-seed 42 --threads 1 --shards 4
          --out-dir ${OUT} --quiet
  OUTPUT_QUIET
  ERROR_VARIABLE log
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "mtr_fleet exited ${rc}:\n${log}")
endif()

# One "<sha256>  <file>" line per merged artifact, in name order
# (sha256sum's format).
file(GLOB artifacts RELATIVE ${OUT}/merged ${OUT}/merged/*.csv ${OUT}/merged/*.jsonl)
list(SORT artifacts)
set(digests "")
foreach(name IN LISTS artifacts)
  file(SHA256 ${OUT}/merged/${name} sum)
  string(APPEND digests "${sum}  ${name}\n")
endforeach()
file(WRITE ${OUT}/digests.txt "${digests}")

if(REGENERATE)
  file(WRITE ${GOLDEN}/fleet_digests.txt "${digests}")
  message(STATUS "regenerated ${GOLDEN}/fleet_digests.txt")
endif()

file(READ ${GOLDEN}/fleet_digests.txt expected)
if(NOT digests STREQUAL expected)
  message(FATAL_ERROR "merged digests differ from ${GOLDEN}/fleet_digests.txt; "
                      "see ${OUT}/digests.txt")
endif()
