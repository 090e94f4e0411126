// mtr_sweep — the sweep-driver CLI. One binary runs any registered
// figure/table sweep on a BatchRunner worker pool, streams per-cell
// results to <out-dir>/<sweep>.{csv,jsonl}, and reports progress/ETA on
// stderr. Grids can be split across machines (--shard I/N), killed runs
// continued (--resume), and the per-sweep or per-shard outputs stitched
// into one file with mtr_merge.
//
//   mtr_sweep --list
//   mtr_sweep fig04 --out-dir results/
//   mtr_sweep --all --out-dir results/ --seeds 5 --threads 8
//   mtr_merge --csv all.csv --jsonl all.jsonl results/*.csv results/*.jsonl
//   mtr_sweep --all --shard 1/3 --out-dir shard1/ --quiet
//   mtr_sweep --all --shard 1/3 --out-dir shard1/ --resume   # after a kill
#include "bench/sweeps.hpp"
#include "dist/driver.hpp"

int main(int argc, char** argv) {
  mtr::report::SweepRegistry registry;
  mtr::bench::register_all_sweeps(registry);
  return mtr::dist::sweep_main(registry, argc, argv);
}
