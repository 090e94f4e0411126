// mtr_merge: folds per-shard CSV/JSONL sweep outputs back into one
// canonical grid-order dataset. Inputs are validated hard — schema
// versions, incomplete shard tails, duplicate or conflicting cells, gaps
// in the cell-index space — and JSONL `record:"cell"` aggregates are
// recomputed from the shard's run records (and cross-checked against what
// the shard wrote), so the merged files are byte-identical to a
// single-process run of the same grid.
#pragma once

#include <cstdint>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace mtr::dist {

/// Why a merge failed, doubling as the process exit code — scripts and the
/// mtr_fleet supervisor branch on it. 2 means the input bytes are unusable
/// (torn tail, another schema version, corrupt aggregate); 3 means the
/// shard SET is wrong (a gap in the cell-index space or overlapping
/// shards) while each individual file may be fine.
enum class MergeFault : int { kCorrupt = 2, kGapOrDuplicate = 3 };

/// A merge validation failure carrying its taxonomy code. Derives from
/// std::runtime_error so callers that only want the message still work.
class MergeError : public std::runtime_error {
 public:
  MergeError(MergeFault fault, const std::string& message)
      : std::runtime_error(message), fault(fault) {}
  MergeFault fault;
};

struct MergeOptions {
  bool help = false;
  bool allow_gaps = false;            // --allow-gaps
  std::string csv_out;                // --csv
  std::string jsonl_out;              // --jsonl
  std::string metrics_out;            // --metrics
  std::vector<std::string> csv_in;    // positional *.csv
  std::vector<std::string> jsonl_in;  // positional *.jsonl
  std::vector<std::string> metrics_in;  // positional *.json (metrics files)
};

/// Parses mtr_merge argv; throws UsageError on malformed input.
MergeOptions parse_merge_args(int argc, const char* const* argv);

/// Merges shard JSONL files into the canonical byte stream. `cell_indices`,
/// when non-null, receives the merged cell indices in emission order (for
/// cross-format consistency checks). Throws MergeError on any validation
/// failure. `allow_gaps` downgrades cell-index gaps (and empty input sets)
/// from errors to entries in `missing` — the partial-fleet merge path.
std::string merge_jsonl(const std::vector<std::string>& inputs,
                        std::vector<std::uint64_t>* cell_indices = nullptr,
                        bool allow_gaps = false,
                        std::vector<std::uint64_t>* missing = nullptr);

/// Same for shard CSV files (canonical header + rows in cell-index order).
std::string merge_csv(const std::vector<std::string>& inputs,
                      std::vector<std::uint64_t>* cell_indices = nullptr,
                      bool allow_gaps = false,
                      std::vector<std::uint64_t>* missing = nullptr);

/// Runs a full merge: validates the option combination, merges each
/// configured format, cross-checks them, and writes the outputs (creating
/// parent directories). Returns a process exit code (0 ok, 1 output write
/// failure, 2 usage error or corrupt input, 3 gap/duplicate — see
/// MergeFault).
int run_merge(const MergeOptions& options, std::ostream& out, std::ostream& err);

/// The whole CLI: parse + run + error reporting. `main` forwards here.
int merge_main(int argc, const char* const* argv);

}  // namespace mtr::dist
