#include "dist/resume.hpp"

#include <filesystem>
#include <stdexcept>

#include "dist/records.hpp"

namespace mtr::dist {
namespace {

using report::describe;

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

ResumeIndex ResumeIndex::scan(const std::string& jsonl_path,
                              const std::vector<std::uint64_t>& expected_seeds,
                              std::optional<std::uint64_t> metrics_cells) {
  ResumeIndex index;
  index.path_ = jsonl_path;

  // Every block scan_jsonl returns is complete: its summary line closed it.
  std::vector<CellBlock> blocks;
  if (std::filesystem::exists(jsonl_path)) {
    try {
      blocks = scan_jsonl(jsonl_path).blocks;
    } catch (const SchemaError& e) {
      // Appending to another schema version would corrupt the file, and no
      // build reads it back: the refusal gains the one way forward.
      throw SchemaError("resume: " + std::string(e.what()) +
                        " — start the sweep fresh");
    }
    for (const CellBlock& b : blocks)
      check_seeds(jsonl_path, b, expected_seeds);
    check_order(jsonl_path, blocks);
  }

  std::size_t n = blocks.size();
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
  for (std::size_t i = 0; i < n; ++i) {
    const CellBlock& b = blocks[i];
    index.done_.emplace(b.key.cell_index, Done{b.key, b.first_line});
    index.valid_bytes_ = b.end_offset;
  }
  return index;
}

void ResumeIndex::truncate() const {
  if (std::filesystem::exists(path_) &&
      std::filesystem::file_size(path_) > valid_bytes_)
    std::filesystem::resize_file(path_, valid_bytes_);
}

std::string ResumeIndex::location(std::uint64_t cell_index) const {
  return path_ + ":" + std::to_string(done_.at(cell_index).line);
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
