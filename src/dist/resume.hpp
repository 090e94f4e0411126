// Resumable sweeps: ResumeIndex scans the output a previous (possibly
// killed) mtr_sweep invocation left behind, identifies the cells that are
// already complete — full seed set, current schema version, CSV and JSONL
// agreeing — and lets the driver (1) truncate any partial tail back to the
// last complete cell and (2) skip completed cells, so appending the rest
// reproduces the uninterrupted run byte for byte.
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
  /// Scans the existing outputs of one sweep invocation. Either path may
  /// be empty (sink not configured) or name a file that does not exist yet
  /// (fresh start) — both contribute nothing. Throws SchemaError on output
  /// recorded with another schema version (it cannot be appended to; the
  /// sweep must start fresh) and std::runtime_error when a complete cell
  /// was recorded with a seed set other than `expected_seeds` (resume
  /// requires the original --seeds/--first-seed), or when the CSV and
  /// JSONL disagree about a cell. When both files exist, only cells
  /// complete in BOTH count (a kill can land between the two sink writes).
  /// Zero-byte and header-only files — a shard killed before its first
  /// flush — count as "nothing done yet", never as errors.
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
  static ResumeIndex scan(const std::string& csv_path,
                          const std::string& jsonl_path,
                          const std::vector<std::uint64_t>& expected_seeds,
                          std::optional<std::uint64_t> metrics_cells =
                              std::nullopt);

  /// Complete cells found.
  std::size_t size() const { return done_.size(); }

  /// True when the metrics snapshot claimed cells the records cannot back
  /// (see scan): everything reruns and the caller must fold metrics from
  /// scratch instead of seeding from the snapshot.
  bool metrics_overrun() const { return metrics_overrun_; }

  /// Truncates the scanned files back to the end of the last complete
  /// cell, dropping the partial tail a kill left behind. Call once before
  /// reopening the files in append mode.
  void truncate_files() const;

  /// True when this cell is already on disk. Throws std::runtime_error,
  /// naming the first differing column, if the key recorded at this cell
  /// index contradicts the current grid's: resuming into output written by
  /// a different sweep selection.
  bool completed(const report::CellKey& cell) const;

 private:
  struct Done {
    report::CellKey key;
    /// Where the block was recorded (error reports): path + first line.
    std::string path;
    std::uint64_t line = 0;
  };
  std::map<std::uint64_t, Done> done_;
  std::string csv_path_, jsonl_path_;
  std::uint64_t csv_valid_ = 0, jsonl_valid_ = 0;
  bool have_csv_ = false, have_jsonl_ = false;
  bool metrics_overrun_ = false;
};

}  // namespace mtr::dist
