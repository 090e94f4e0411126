// mtr_merge — stitches per-shard mtr_sweep records back into one canonical
// grid-order dataset, byte-identical to a single-process run of the same
// grid; the merged CSV is rendered from the merged JSONL. See
// src/dist/merge.hpp for the validation rules.
//
//   mtr_merge --csv merged/fig04.csv --jsonl merged/fig04.jsonl
//       shard0/fig04.jsonl shard1/fig04.jsonl shard2/fig04.jsonl
//   (one command line; wrapped here for width)
#include "dist/merge.hpp"

int main(int argc, char** argv) {
  return mtr::dist::merge_main(argc, argv);
}
