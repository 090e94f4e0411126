// Resumable sweeps: ResumeIndex scans the JSONL records a killed or failed
// mtr_sweep invocation left behind — the only file it reads — identifies
// the complete cells (full seed set, current schema version, plan order)
// and lets the driver (1) truncate any partial tail back to the last kept
// cell and (2) skip kept cells, so appending the rest reproduces the
// uninterrupted run byte for byte. The driver rebuilds `<sweep>.csv` from
// the kept records (render_csv).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "report/sweep.hpp"

namespace mtr::dist {

class ResumeIndex {
 public:
  /// Scans the JSONL records of one sweep. A path that does not exist yet
  /// (fresh start) contributes nothing. Throws SchemaError on records of
  /// another schema version (they cannot be appended to; the sweep must
  /// start fresh) and std::runtime_error when a complete cell was
  /// recorded with a seed set other than `expected_seeds` (resume requires
  /// the original --seeds/--first-seed) or when the blocks are not in
  /// ascending cell order. A zero-byte file — a shard killed before its
  /// first flush — counts as "nothing done yet", never as an error.
  ///
  /// `metrics_cells`, when set, caps the completed prefix at the number of
  /// cells the run's crash-consistent metrics snapshot covers: cells the
  /// records prove but the snapshot missed are rolled back and rerun, so
  /// the resumed fold stays counter-exact (reruns are deterministic, so
  /// the records stay byte-identical either way). The snapshot always
  /// trails the records by at most one cell; if it somehow claims MORE
  /// cells than the records hold (a tear spanning whole cells), the index
  /// resets to zero completed cells and flags metrics_overrun() so the
  /// caller discards the stale snapshot too.
  static ResumeIndex scan(const std::string& jsonl_path,
                          const std::vector<std::uint64_t>& expected_seeds,
                          std::optional<std::uint64_t> metrics_cells =
                              std::nullopt);

  /// Complete cells found.
  std::size_t size() const { return done_.size(); }

  /// True when the metrics snapshot claimed cells the records cannot back
  /// (see scan): everything reruns and the caller must fold metrics from
  /// scratch instead of seeding from the snapshot.
  bool metrics_overrun() const { return metrics_overrun_; }

  /// Length of the kept prefix: the records file's bytes up to the end of
  /// the last complete cell resume keeps.
  std::uint64_t valid_bytes() const { return valid_bytes_; }

  /// Truncates the records file to valid_bytes(), dropping the partial
  /// tail a kill left behind. Call once before reopening it in append
  /// mode.
  void truncate() const;

  /// True when this cell is already on disk. Throws std::runtime_error,
  /// naming the first differing column, if the key recorded at this cell
  /// index contradicts the current grid's: resuming into output written by
  /// a different sweep selection.
  bool completed(const report::CellKey& cell) const;

  /// "path:line" where a complete cell's block begins (error reports).
  /// Throws std::out_of_range unless the cell is complete.
  std::string location(std::uint64_t cell_index) const;

 private:
  struct Done {
    report::CellKey key;
    std::uint64_t line = 0;  // the block's first line (error reports)
  };
  std::map<std::uint64_t, Done> done_;
  std::string path_;
  std::uint64_t valid_bytes_ = 0;
  bool metrics_overrun_ = false;
};

}  // namespace mtr::dist
