#include "dist/resume.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>

#include "dist/records.hpp"

namespace mtr::dist {
namespace {

using report::describe;

/// Scans an existing output. Appending to a file of another schema version
/// would corrupt it, and no build reads it back, so the scanner's refusal
/// gains the one way forward.
FileScan scan_existing(const std::string& path,
                       FileScan (*scanner)(const std::string&)) {
  try {
    return scanner(path);
  } catch (const SchemaError& e) {
    throw SchemaError("resume: " + std::string(e.what()) +
                      " — start the sweep fresh");
  }
}

/// Enforces that a block recorded the seed set this invocation sweeps —
/// resume cannot mix replicate counts or first seeds.
void check_seeds(const std::string& path, const CellBlock& b,
                 const std::vector<std::uint64_t>& expected) {
  if (b.seeds == expected) return;
  throw std::runtime_error(
      path + ":" + std::to_string(b.first_line) + ": " +
      describe(b.key) +
      " was recorded with " + std::to_string(b.seeds.size()) +
      " seed(s) starting at " +
      (b.seeds.empty() ? std::string("?") : std::to_string(b.seeds.front())) +
      " but this invocation sweeps " + std::to_string(expected.size()) +
      " seed(s) starting at " +
      (expected.empty() ? std::string("?") : std::to_string(expected.front())) +
      " — resume with the original --seeds/--first-seed or start fresh");
}

/// Enforces that a file's complete blocks name cells in plan order, each
/// cell_index above the last. A run writes its owned cells in that order
/// and a failed or killed run leaves a prefix of them, so any other order
/// was edited or concatenated by hand: appending the missing cells to it
/// could not reproduce the uninterrupted run.
void check_order(const std::string& path, const std::vector<CellBlock>& done) {
  for (std::size_t i = 1; i < done.size(); ++i) {
    const CellBlock& b = done[i];
    const std::uint64_t before = done[i - 1].key.cell_index;
    if (b.key.cell_index > before) continue;
    throw std::runtime_error(
        "resume: " + path + ":" + std::to_string(b.first_line) + ": cell " +
        std::to_string(b.key.cell_index) + " follows cell " +
        std::to_string(before) +
        " — a sweep records its cells in plan order; start fresh");
  }
}

}  // namespace

ResumeIndex ResumeIndex::scan(const std::string& csv_path,
                              const std::string& jsonl_path,
                              const std::vector<std::uint64_t>& expected_seeds,
                              std::optional<std::uint64_t> metrics_cells) {
  ResumeIndex index;
  index.csv_path_ = csv_path;
  index.jsonl_path_ = jsonl_path;

  // Complete blocks per file, in file order. JSONL blocks are complete by
  // construction (their summary line closed them); CSV closed blocks are
  // complete because a cell's rows are written in one burst, and the final
  // open block counts only when it carries the full expected seed set.
  std::vector<CellBlock> csv_done, jsonl_done;

  if (!jsonl_path.empty() && std::filesystem::exists(jsonl_path)) {
    index.have_jsonl_ = true;
    FileScan scan = scan_existing(jsonl_path, scan_jsonl);
    for (CellBlock& b : scan.blocks) {
      check_seeds(jsonl_path, b, expected_seeds);
      jsonl_done.push_back(std::move(b));
    }
    check_order(jsonl_path, jsonl_done);
  }
  if (!csv_path.empty() && std::filesystem::exists(csv_path)) {
    index.have_csv_ = true;
    FileScan scan = scan_existing(csv_path, scan_csv);
    // Until a block makes it into the agreed prefix below, only the header
    // is safe to keep — e.g. a corrupt JSONL next to an intact CSV must
    // roll the CSV back too, or the re-run cells would append duplicates.
    index.csv_valid_ = scan.header_bytes;
    for (CellBlock& b : scan.blocks) {
      // An open final block is a kill artifact only if its rows are a
      // strict prefix of the expected seed run; a full or contradictory
      // seed set is a complete cell and must face the mismatch check.
      const bool partial_tail =
          !b.closed && b.seeds.size() < expected_seeds.size() &&
          std::equal(b.seeds.begin(), b.seeds.end(), expected_seeds.begin());
      if (partial_tail) continue;
      check_seeds(csv_path, b, expected_seeds);
      csv_done.push_back(std::move(b));
    }
    check_order(csv_path, csv_done);
  }

  // A kill can land between the CSV write and the JSONL write of the same
  // cell, so the resumable prefix is what both files agree on.
  std::size_t n = index.have_csv_ && index.have_jsonl_
                      ? std::min(csv_done.size(), jsonl_done.size())
                      : std::max(csv_done.size(), jsonl_done.size());
  if (metrics_cells) {
    if (*metrics_cells > n) {
      // The snapshot covers cells the records lost (a tear across whole
      // cells). Folding on top of it would double-count; rerun everything
      // against a fresh fold instead.
      index.metrics_overrun_ = true;
      n = 0;
    } else if (*metrics_cells < n) {
      // Records ran ahead of the crash-consistent snapshot (it trails by
      // design). Roll the extra cells back so resumed counters fold once.
      n = static_cast<std::size_t>(*metrics_cells);
    }
  }
  const std::vector<CellBlock>& primary =
      index.have_jsonl_ ? jsonl_done : csv_done;
  const std::string& primary_path =
      index.have_jsonl_ ? jsonl_path : csv_path;
  for (std::size_t i = 0; i < n; ++i) {
    const CellBlock& b = primary[i];
    if (index.have_csv_ && index.have_jsonl_) {
      const CellBlock& c = csv_done[i];
      if (const char* field = report::first_difference(c.key, b.key))
        throw std::runtime_error(
            "resume: " + csv_path + ":" + std::to_string(c.first_line) +
            " and " + jsonl_path + ":" + std::to_string(b.first_line) +
            " disagree at block " + std::to_string(i) + " (" +
            describe(c.key) + " vs " + describe(b.key) +
            ", field '" + field +
            "' differs) — were they written by the same invocation?");
    }
    index.done_.emplace(b.key.cell_index,
                        Done{b.key, primary_path, b.first_line});
    if (index.have_jsonl_) index.jsonl_valid_ = b.end_offset;
    if (index.have_csv_) index.csv_valid_ = csv_done[i].end_offset;
  }

  // Skipping a cell means every configured sink already has it. A
  // configured file that does not exist (deleted, or a format the
  // original run never wrote) would silently end up missing every
  // skipped cell — refuse instead.
  if (!index.done_.empty()) {
    const auto require_file = [&](const std::string& path, bool have) {
      if (path.empty() || have) return;
      throw std::runtime_error(
          "resume: " + path + " does not exist but the other output file " +
          "records " + std::to_string(index.done_.size()) +
          " complete cell(s) — resuming would leave " + path +
          " without them; restore it, drop it from the invocation, or "
          "start fresh");
    };
    require_file(csv_path, index.have_csv_);
    require_file(jsonl_path, index.have_jsonl_);
  }
  return index;
}

void ResumeIndex::truncate_files() const {
  const auto truncate = [](const std::string& path, std::uint64_t valid) {
    if (path.empty() || !std::filesystem::exists(path)) return;
    if (std::filesystem::file_size(path) > valid)
      std::filesystem::resize_file(path, valid);
  };
  if (have_jsonl_) truncate(jsonl_path_, jsonl_valid_);
  if (have_csv_) truncate(csv_path_, csv_valid_);
}

std::string ResumeIndex::location(std::uint64_t cell_index) const {
  const Done& d = done_.at(cell_index);
  return d.path + ":" + std::to_string(d.line);
}

bool ResumeIndex::completed(const report::CellKey& cell) const {
  const auto it = done_.find(cell.cell_index);
  if (it == done_.end()) return false;
  const Done& d = it->second;
  if (const char* field = report::first_difference(d.key, cell))
    throw std::runtime_error(
        "resume: " + location(cell.cell_index) + ": recorded " +
        describe(d.key) + " but this invocation's grid puts " +
        describe(cell) + " there (field '" + field +
        "' differs) — resume requires the original sweep selection; start "
        "fresh or rerun with the original arguments");
  return true;
}

}  // namespace mtr::dist
