#include "dist/merge.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/format.hpp"
#include "dist/flags.hpp"
#include "dist/metrics.hpp"
#include "dist/records.hpp"
#include "dist/status.hpp"
#include "report/result_sink.hpp"

namespace mtr::dist {
namespace {

using report::describe;

constexpr const char* kUsage =
    "usage: mtr_merge [--csv OUT.csv] [--jsonl OUT.jsonl]\n"
    "                 [--metrics OUT.json] SHARD_FILE...\n"
    "\n"
    "Merges per-shard mtr_sweep outputs back into one canonical dataset.\n"
    "Inputs are classified by extension. .jsonl files are the records:\n"
    "they merge into --jsonl, and --csv renders the merged records. A .csv\n"
    "input is only checked: it must come with its same-stem .jsonl input\n"
    "and equal that file's rendering byte for byte. .json files\n"
    "(mtr_sweep --metrics output) fold into --metrics. Every cell is\n"
    "validated (schema version, incomplete shard tails, duplicate cells,\n"
    "non-consecutive replicate seeds, gaps in the cell index space) and\n"
    "re-emitted in grid order; cell aggregates are recomputed from the run\n"
    "records and cross-checked against the shard.\n"
    "The merged files are byte-identical to a single-process run of the\n"
    "same grid. Metrics fold by sweep name: counters sum, gauges max, and\n"
    "the shard count adds up.\n"
    "\n"
    "Only the current schemas are read: record schema v4 and metrics\n"
    "schema v2. Files produced by an older metertrust are refused (exit 2).\n"
    "\n"
    "  --csv OUT.csv      merged CSV destination (parent dirs are created)\n"
    "  --jsonl OUT.jsonl  merged JSONL destination\n"
    "  --metrics OUT.json folded metrics destination\n"
    "  --allow-gaps       merge the cells that are present even when the\n"
    "                     cell-index space has gaps (a failed shard's cells\n"
    "                     are simply absent); the gap list is reported\n"
    "  --help             print this message\n"
    "\n"
    "Exit codes: 0 merged and verified; 1 output write failure; 2 usage\n"
    "error or corrupt/unusable input (torn tail, another schema, a record\n"
    "not in the writer's key order, aggregate recomputation mismatch, a\n"
    ".csv input that is not its .jsonl's rendering or has no .jsonl beside\n"
    "it — reports name file, line, and byte offset);\n"
    "3 cell-index gap or duplicate cell (incomplete or overlapping shard\n"
    "set; each file itself may be intact).\n";

/// Rebuilds each block's `record:"cell"` line from its run records while
/// scan_jsonl_records reads them — exactly the way JsonlSink computes it,
/// from the tokens the scan's walk left — and keeps, per cell whose
/// recorded summary disagrees or whose runs hold an invalid value, the
/// first failure. A run line whose body repeats the previous run line's in
/// the block adds that line's parse again instead of parsing itself: the
/// copied replicates of a seed-invariant cell are read once.
class AggregateCheck {
 public:
  explicit AggregateCheck(const std::string& path)
      : path_(path), summary_(report::summarize_cell("", core::CellStats{})) {
    const report::RecordLayout& run = report::run_layout();
    for (const report::CellStatSummary& st : summary_.stats)
      stat_at_.push_back(run.index(st.key));
    // A cell summary's "pop_<x>_dist" merges the run records' "pop_<x>_sketch".
    for (const auto& [dist, sketch] : summary_.sketches)
      sketch_at_.push_back(run.index(dist.substr(0, dist.size() - 5) + "_sketch"));
    parse_.values.resize(stat_at_.size());
    parse_.sketches.resize(sketch_at_.size());
  }

  JsonlVisitor visitor() {
    return {[this](const auto&... a) { on_run(a...); },
            [this](const auto&... a) { on_cell(a...); }};
  }

  /// cell_index -> why its block failed the check.
  std::map<std::uint64_t, std::string> failures;

 private:
  /// What the check reads from one run line.
  struct RunParse {
    std::string workload;
    bool source_ok = true;
    std::vector<double> values;            // summary_.stats order
    std::vector<QuantileSketch> sketches;  // summary_.sketches order
  };

  void on_run(const CellBlock& b, std::uint64_t line_no,
              const report::RecordWalker& run, bool repeats) {
    if (b.seeds.size() == 1) {  // a new block
      error_.clear();
      summary_.source_ok = true;
      for (report::CellStatSummary& st : summary_.stats) st.stats = RunningStats{};
      for (auto& sketch : summary_.sketches) sketch.second = QuantileSketch{};
    }
    if (!error_.empty()) return;
    if (!repeats) {
      if (const char* bad = parse(run)) {
        error_ = path_ + ":" + std::to_string(line_no) + ": run record of " +
                 describe(b.key) + " has an invalid field '" + bad + "'";
        return;
      }
    }
    summary_.workload = parse_.workload;  // constant within a cell
    summary_.source_ok = summary_.source_ok && parse_.source_ok;
    for (std::size_t k = 0; k < parse_.values.size(); ++k)
      summary_.stats[k].stats.add(parse_.values[k]);
    // Run records carry the per-run sketches verbatim; merging them is
    // exact (bucket counts sum), so the recomputed cell quantiles come out
    // byte-identical to the single-process run.
    for (std::size_t k = 0; k < parse_.sketches.size(); ++k)
      summary_.sketches[k].second.merge(parse_.sketches[k]);
  }

  /// Reads a run line's tokens into parse_; the name of the first invalid
  /// field, or nullptr.
  const char* parse(const report::RecordWalker& run) {
    const report::RecordLayout& layout = run.layout();
    const auto text = [&](std::string_view token, std::string& out) {
      out.clear();
      return token.front() == '"' &&
             decode_json_string(token.substr(1, token.size() - 2), out) ==
                 nullptr;
    };
    if (!text(run.token(workload_at_), parse_.workload)) return "workload";
    const std::string_view source_ok = run.token(source_ok_at_);
    if (source_ok != "true" && source_ok != "false") return "source_ok";
    parse_.source_ok = source_ok == "true";
    for (std::size_t k = 0; k < stat_at_.size(); ++k) {
      const auto v = parse_f64(run.token(stat_at_[k]));
      if (!v) return layout.keys[stat_at_[k]].c_str();
      parse_.values[k] = *v;
    }
    for (std::size_t k = 0; k < sketch_at_.size(); ++k) {
      auto sketch = text(run.token(sketch_at_[k]), text_)
                        ? report::decode_sketch(text_)
                        : std::nullopt;
      if (!sketch) return layout.keys[sketch_at_[k]].c_str();
      parse_.sketches[k] = std::move(*sketch);
    }
    return nullptr;
  }

  void on_cell(const CellBlock& b, std::uint64_t line_no,
               const report::RecordWalker& cell) {
    const std::string_view line = cell.line();
    if (error_.empty()) {
      summary_.key = b.key;
      summary_.seeds = b.seeds.size();
      line_.clear();
      report::append_cell_record(line_, summary_);
      // A mismatch means the file was corrupted or hand-edited. (line_
      // ends in the newline `line` was read without.)
      if (std::string_view(line_).substr(0, line_.size() - 1) != line)
        error_ = path_ + ":" + std::to_string(line_no) +
                 ": recomputed aggregate for " + describe(b.key) +
                 " does not match the recorded summary (run records at "
                 "lines " +
                 std::to_string(b.first_line) + "-" +
                 std::to_string(line_no - 1) + ") — corrupt shard output?";
    }
    if (!error_.empty()) failures.emplace(b.key.cell_index, std::move(error_));
  }

  const std::string& path_;
  report::CellSummary summary_;
  // Where the run layout puts what the check reads.
  const std::size_t workload_at_ = report::run_layout().index("workload");
  const std::size_t source_ok_at_ = report::run_layout().index("source_ok");
  std::vector<std::size_t> stat_at_;    // summary_.stats order
  std::vector<std::size_t> sketch_at_;  // summary_.sketches order
  RunParse parse_;     // the last run line parsed
  std::string error_;  // the open block's first failure
  std::string line_;   // reused recompute buffer
  std::string text_;   // a decoded sketch
};

/// A validated shard set: every cell's block in cell-index order, ready to
/// be spliced into the merged files.
struct MergePlan {
  std::vector<std::string> inputs;
  struct Cell {
    std::uint64_t index = 0;
    std::size_t input = 0;  // into `inputs`
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint64_t first_line = 0;
  };
  std::vector<Cell> cells;
  std::vector<std::uint64_t> missing;  // gaps, with allow_gaps
};

/// Scans every JSONL input, rejecting incomplete shards, empty inputs,
/// duplicates, gaps, records of another schema version and cells whose
/// recomputed aggregate disagrees with the recorded one. `allow_gaps`
/// turns gaps (and an all-empty input set) into entries in `missing`
/// instead of errors — the partial-fleet merge path.
MergePlan plan_merge(const std::vector<std::string>& inputs, bool allow_gaps) {
  // cell_index -> (block, input)
  std::map<std::uint64_t, std::pair<CellBlock, std::size_t>> cells;
  std::map<std::uint64_t, std::string> corrupt;
  for (std::size_t in = 0; in < inputs.size(); ++in) {
    const std::string& path = inputs[in];
    FileScan scan;
    AggregateCheck check(path);
    try {
      scan = scan_jsonl_records(path, check.visitor());
    } catch (const SchemaError& e) {
      throw MergeError(MergeFault::kCorrupt, e.what());
    }
    if (!scan.clean)
      throw MergeError(
          MergeFault::kCorrupt,
          scan.tail_error +
              " — the shard looks killed mid-write; finish it with --resume "
              "(or re-run it) before merging");
    corrupt.merge(check.failures);
    // A blockless file is fine: a shard can own zero cells of a small
    // sweep and still leave its (empty) output behind.
    for (CellBlock& b : scan.blocks) {
      const auto [it, inserted] =
          cells.emplace(b.key.cell_index, std::make_pair(std::move(b), in));
      if (!inserted) {
        const CellBlock& first = it->second.first;
        throw MergeError(MergeFault::kGapOrDuplicate,
                         "duplicate " + describe(first.key) + " in " +
                             inputs[it->second.second] + " and " + path +
                             " — overlapping shards (or shards written by "
                             "builds that assign cells differently)?");
      }
    }
  }
  MergePlan plan;
  plan.inputs = inputs;
  if (cells.empty()) {
    if (allow_gaps) return plan;  // every surviving shard owned zero cells
    throw MergeError(MergeFault::kCorrupt,
                     "no complete cells to merge in any input");
  }

  // Every cell of one invocation carries the same replicate seed count.
  const CellBlock& reference = cells.begin()->second.first;
  for (const auto& [index, entry] : cells)
    if (entry.first.seeds.size() != reference.seeds.size())
      throw MergeError(
          MergeFault::kCorrupt,
          inputs[entry.second] + ": " + describe(entry.first.key) + " has " +
              std::to_string(entry.first.seeds.size()) +
              " run record(s) but " + describe(reference.key) + " has " +
              std::to_string(reference.seeds.size()) +
              " — were the shards run with different --seeds?");
  // mtr_sweep gives every cell the consecutive seeds --first-seed,
  // --first-seed + 1, ..., so any other sequence is an edited record.
  for (const auto& [index, entry] : cells) {
    const CellBlock& b = entry.first;
    for (std::size_t i = 1; i < b.seeds.size(); ++i)
      if (b.seeds[i] != b.seeds[0] + i)
        throw MergeError(
            MergeFault::kCorrupt,
            inputs[entry.second] + ":" + std::to_string(b.first_line + i) +
                ": run record of " + describe(b.key) + " has seed " +
                std::to_string(b.seeds[i]) + " where its cell's consecutive "
                "seeds need " + std::to_string(b.seeds[0] + i) +
                " — corrupt shard output?");
  }

  // Contiguity over [min, max]: a missing index means a shard was left out.
  std::uint64_t expect = cells.begin()->first;
  for (const auto& [index, block] : cells) {
    while (expect < index) plan.missing.push_back(expect++);
    expect = index + 1;
  }
  if (!plan.missing.empty() && !allow_gaps) {
    std::string list;
    for (std::size_t i = 0; i < plan.missing.size() && i < 10; ++i)
      list += (i ? ", " : "") + std::to_string(plan.missing[i]);
    if (plan.missing.size() > 10) list += ", ...";
    throw MergeError(MergeFault::kGapOrDuplicate,
                     "cell index gap — missing cell(s) " + list +
                         " — was a shard's output left out of the merge?");
  }

  // The first cell, in merge order, whose aggregate failed its recompute.
  if (!corrupt.empty())
    throw MergeError(MergeFault::kCorrupt, corrupt.begin()->second);

  plan.cells.reserve(cells.size());
  for (const auto& [index, entry] : cells)
    plan.cells.push_back({index, entry.second, entry.first.begin_offset,
                          entry.first.end_offset, entry.first.first_line});
  return plan;
}

/// Writes the merged files: each block, read once in cell-index order, is
/// copied verbatim into `jsonl` and rendered into `csv` (after its
/// header). Either stream may be null.
void splice(const MergePlan& plan, std::ostream* csv, std::ostream* jsonl) {
  if (csv != nullptr) report::write_csv_header(*csv);
  std::vector<std::ifstream> files(plan.inputs.size());
  std::vector<char> buf;
  std::string rows;
  for (const MergePlan::Cell& c : plan.cells) {
    const std::string& path = plan.inputs[c.input];
    std::ifstream& in = files[c.input];
    if (!in.is_open()) in.open(path, std::ios::binary);
    buf.resize(c.end - c.begin);
    in.seekg(static_cast<std::streamoff>(c.begin));
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!in)
      throw MergeError(MergeFault::kCorrupt,
                       path + ": cell " + std::to_string(c.index) +
                           " changed or vanished while merging");
    if (jsonl != nullptr)
      jsonl->write(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (csv == nullptr) continue;
    rows.clear();
    try {
      report::append_csv_rows(rows, std::string_view(buf.data(), buf.size()),
                              path, c.first_line);
    } catch (const std::runtime_error& e) {
      throw MergeError(MergeFault::kCorrupt, e.what());
    }
    *csv << rows;
  }
}

/// Publishes the merged files the options name, both filled by one splice:
/// each streams into its OUT.tmp and is renamed into place once written.
void publish_merge(const MergePlan& plan, const std::string& csv_out,
                   const std::string& jsonl_out) {
  const auto with_jsonl = [&](std::ostream* csv) {
    if (jsonl_out.empty()) return splice(plan, csv, nullptr);
    publish_file(jsonl_out,
                 [&](std::ostream& jsonl) { splice(plan, csv, &jsonl); },
                 "output");
  };
  if (csv_out.empty()) return with_jsonl(nullptr);
  publish_file(csv_out, [&](std::ostream& csv) { with_jsonl(&csv); },
               "output");
}

/// The .jsonl input a .csv input must come with.
std::string same_stem_jsonl(const std::string& csv) {
  return csv.substr(0, csv.size() - 4) + ".jsonl";
}

/// A .csv input is checked, never merged: it must be, byte for byte, the
/// CSV rendering of its .jsonl input, which plan_merge has validated.
void check_csv_input(const std::string& csv) {
  const std::string jsonl = same_stem_jsonl(csv);
  std::ostringstream want;
  try {
    render_csv(jsonl, std::filesystem::file_size(jsonl), want);
  } catch (const std::runtime_error& e) {
    throw MergeError(MergeFault::kCorrupt, e.what());
  }
  const std::string have = read_file(csv, "CSV");
  if (have == want.view()) return;
  const auto at = std::mismatch(have.begin(), have.end(), want.view().begin(),
                                want.view().end()).first;
  const std::size_t pos = at - have.begin();
  const std::size_t begin = pos == 0 ? 0 : have.rfind('\n', pos - 1) + 1;
  throw MergeError(
      MergeFault::kCorrupt,
      csv + ":" + std::to_string(1 + std::count(have.begin(), at, '\n')) +
          ": differs from the CSV rendering of " + jsonl + " (byte " +
          std::to_string(begin) +
          ") — a .csv input must equal its records' rendering; drop it and "
          "let --csv render the records");
}

}  // namespace

MergeOptions parse_merge_args(int argc, const char* const* argv) {
  MergeOptions o;
  const FlagTable table = {
      switch_flag("--help", o.help),
      switch_flag("-h", o.help),
      switch_flag("--allow-gaps", o.allow_gaps),
      text_flag("--csv", o.csv_out),
      text_flag("--jsonl", o.jsonl_out),
      text_flag("--metrics", o.metrics_out),
  };
  parse_flags(argc, argv, table, [&o](std::string_view path) {
    if (path.ends_with(".csv")) o.csv_in.emplace_back(path);
    else if (path.ends_with(".jsonl")) o.jsonl_in.emplace_back(path);
    else if (path.ends_with(".json")) o.metrics_in.emplace_back(path);
    else
      throw UsageError("input " + std::string(path) +
                       " is not .csv, .jsonl, or .json");
  });
  return o;
}

std::string merge_jsonl(const std::vector<std::string>& inputs) {
  std::ostringstream os;
  splice(plan_merge(inputs, /*allow_gaps=*/false), nullptr, &os);
  return std::move(os).str();
}

int run_merge(const MergeOptions& o, std::ostream& out, std::ostream& err,
              std::vector<std::uint64_t>* merged_cells) {
  if (o.help) {
    out << kUsage;
    return 0;
  }
  if (o.csv_out.empty() && o.jsonl_out.empty() && o.metrics_out.empty()) {
    err << "mtr_merge: pick at least one output (--csv, --jsonl, and/or "
           "--metrics)\n\n"
        << kUsage;
    return 2;
  }
  const auto usage_error = [&](const std::string& message) {
    err << "mtr_merge: " << message << "\n\n" << kUsage;
    return 2;
  };
  for (const std::string& csv : o.csv_in)
    if (std::find(o.jsonl_in.begin(), o.jsonl_in.end(),
                  same_stem_jsonl(csv)) == o.jsonl_in.end())
      return usage_error(csv + " comes without its records " +
                         same_stem_jsonl(csv) +
                         " — the CSV is rendered from the .jsonl inputs");
  const bool records = !o.csv_out.empty() || !o.jsonl_out.empty();
  if (records && o.jsonl_in.empty())
    return usage_error("--csv and --jsonl need .jsonl shard inputs");
  if (!records && !o.jsonl_in.empty())
    return usage_error(".jsonl inputs given but no --csv or --jsonl output");
  if (o.csv_out.empty() && !o.csv_in.empty())
    return usage_error(".csv inputs given but no --csv output");
  if (!o.metrics_out.empty() && o.metrics_in.empty())
    return usage_error("--metrics needs .json shard inputs");
  if (o.metrics_out.empty() && !o.metrics_in.empty())
    return usage_error(".json inputs given but no --metrics output");

  try {
    // Validate every input before writing any output.
    MergePlan plan;
    if (records) {
      plan = plan_merge(o.jsonl_in, o.allow_gaps);
      for (const std::string& csv : o.csv_in) check_csv_input(csv);
      publish_merge(plan, o.csv_out, o.jsonl_out);
      for (const std::string* path : {&o.csv_out, &o.jsonl_out})
        if (!path->empty())
          out << "mtr_merge: " << plan.cells.size() << " cell(s) from "
              << o.jsonl_in.size() << " shard file(s) -> " << *path << '\n';
    }
    for (const MergePlan::Cell& c : plan.cells)
      if (merged_cells != nullptr) merged_cells->push_back(c.index);
    if (!plan.missing.empty()) {
      err << "mtr_merge: " << plan.missing.size()
          << " cell(s) missing (merged with --allow-gaps):";
      for (const std::uint64_t c : plan.missing) err << ' ' << c;
      err << '\n';
    }
    if (!o.metrics_out.empty()) {
      const MetricsFile folded = [&] {
        try {
          std::vector<MetricsFile> shards;
          for (const std::string& path : o.metrics_in)
            shards.push_back(read_metrics_json(path));
          return fold_metrics(shards);
        } catch (const std::exception& e) {
          // A metrics file that fails to parse or to fold is corrupt
          // input, same taxonomy slot as a torn record file.
          throw MergeError(MergeFault::kCorrupt, e.what());
        }
      }();
      std::ostringstream ms;
      trace::write_metrics_json(ms, folded.sweeps, folded.shards);
      publish_file(o.metrics_out, ms.str(), "output");
      out << "mtr_merge: " << folded.sweeps.size() << " sweep metric(s) from "
          << o.metrics_in.size() << " shard file(s) -> " << o.metrics_out
          << '\n';
    }
  } catch (const MergeError& e) {
    err << "mtr_merge: " << e.what() << '\n';
    return static_cast<int>(e.fault);
  } catch (const std::exception& e) {
    err << "mtr_merge: " << e.what() << '\n';
    return 1;
  }
  return 0;
}

int merge_main(int argc, const char* const* argv) {
  return run_cli("mtr_merge", kUsage, 2, [&] {
    return run_merge(parse_merge_args(argc, argv), std::cout, std::cerr);
  });
}

}  // namespace mtr::dist
