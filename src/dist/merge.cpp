#include "dist/merge.hpp"

#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

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
    "Inputs are classified by extension: .csv files merge into --csv,\n"
    ".jsonl files into --jsonl, .json files (mtr_sweep --metrics output)\n"
    "fold into --metrics. Every cell is validated (schema version,\n"
    "incomplete shard tails, duplicate/conflicting cells, non-consecutive\n"
    "replicate seeds, gaps in the cell index space) and re-emitted in grid\n"
    "order; JSONL cell aggregates are recomputed from the run records and\n"
    "cross-checked against the shard.\n"
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
    "error or corrupt/unusable input (torn tail, another schema, aggregate\n"
    "recomputation mismatch — reports name file, line, and byte offset);\n"
    "3 cell-index gap or duplicate cell (incomplete or overlapping shard\n"
    "set; each file itself may be intact).\n";

/// Rebuilds each block's `record:"cell"` line from its run records while
/// scan_jsonl_records reads them — exactly the way JsonlSink computes it,
/// from the scan's own parse of each run line — and keeps, per cell whose
/// recorded summary disagrees or whose runs lack a field, the first
/// failure. A run line whose body has the same bytes as the previous run
/// line's in the block adds that line's parse again instead of parsing
/// itself: the copied replicates of a seed-invariant cell are read once.
class AggregateCheck {
 public:
  explicit AggregateCheck(const std::string& path) : path_(path) {
    for (const std::string& key : cell_stat_keys())
      summary_.stats.push_back({key, {}});
    for (const auto& cols : cell_sketch_columns())
      summary_.sketches.emplace_back(cols.first, QuantileSketch{});
    parse_.values.resize(summary_.stats.size());
    parse_.sketches.resize(summary_.sketches.size());
    prefix_keys_.push_back("record");
    for (std::string& key : report::run_schema_keys()) {
      if (key == "workload") break;
      prefix_keys_.push_back(std::move(key));
    }
  }

  JsonlVisitor visitor() {
    return {[this](const CellBlock& b, std::uint64_t line_no,
                   const JsonFields& f) { on_run(b, line_no, f); },
            [this](const CellBlock& b, std::uint64_t line_no,
                   std::string_view line, const JsonFields&) {
              on_cell(b, line_no, line);
            }};
  }

  /// cell_index -> why its block failed the check.
  std::map<std::uint64_t, std::string> failures;

 private:
  /// What the check reads from one run line.
  struct RunParse {
    std::string workload;
    bool source_ok = true;
    std::vector<double> values;            // summary_.stats order
    std::vector<QuantileSketch> sketches;  // cell_sketch_columns() order
  };

  void on_run(const CellBlock& b, std::uint64_t line_no, const JsonFields& f) {
    if (b.seeds.size() == 1) start_block();
    if (!error_.empty()) return;
    const std::string_view body = body_of(f);
    if (body.empty() || body != last_body_) {
      last_body_.clear();
      if (const char* bad = parse(f)) {
        error_ = path_ + ":" + std::to_string(line_no) + ": run record of " +
                 describe(b.key) + " is missing or has an invalid field '" +
                 bad + "'";
        return;
      }
      last_body_ = body;
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

  /// Reads a run line into parse_; the name of the first missing or
  /// invalid field, or nullptr.
  const char* parse(const JsonFields& f) {
    auto workload = json_string(f, "workload");
    const auto source_ok = json_bool(f, "source_ok");
    if (!workload) return "workload";
    if (!source_ok) return "source_ok";
    parse_.workload = std::move(*workload);
    parse_.source_ok = *source_ok;
    for (std::size_t k = 0; k < parse_.values.size(); ++k) {
      const std::string& key = summary_.stats[k].key;
      const auto v = json_double(f, key);
      if (!v) return key.c_str();
      parse_.values[k] = *v;
    }
    const auto& columns = cell_sketch_columns();
    for (std::size_t k = 0; k < columns.size(); ++k) {
      const auto token = json_string(f, columns[k].second);
      auto sketch = token ? report::decode_sketch(*token) : std::nullopt;
      if (!sketch) return columns[k].second.c_str();
      parse_.sketches[k] = std::move(*sketch);
    }
    return nullptr;
  }

  /// A run line's body — its bytes from the "workload" key to the end of
  /// its last token — when the fields before it are exactly the prefix
  /// JsonlSink writes, so every field parse() reads is in the body and
  /// equal body bytes mean an equal parse. Empty otherwise.
  std::string_view body_of(const JsonFields& f) const {
    const std::size_t n = prefix_keys_.size();
    if (f.size() <= n || f[n].key != "workload") return {};
    for (std::size_t i = 0; i < n; ++i)
      if (f[i].key != prefix_keys_[i]) return {};
    const char* from = f[n].key.data() - 1;  // its opening quote
    const std::string_view last = f.back().token;
    return {from, static_cast<std::size_t>(last.data() + last.size() - from)};
  }

  void on_cell(const CellBlock& b, std::uint64_t line_no,
               std::string_view line) {
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

  void start_block() {
    error_.clear();
    last_body_.clear();
    summary_.source_ok = true;
    for (report::CellStatSummary& st : summary_.stats) st.stats = RunningStats{};
    for (auto& sketch : summary_.sketches) sketch.second = QuantileSketch{};
  }

  const std::string& path_;
  report::CellSummary summary_;
  std::vector<std::string> prefix_keys_;  // a run line's fields before "workload"
  RunParse parse_;         // the last run line parsed
  std::string last_body_;  // its body; empty when the next line must parse
  std::string error_;      // the open block's first failure
  std::string line_;       // reused recompute buffer
};

/// A validated shard set: every cell's block in cell-index order, ready to
/// be spliced into the merged file.
struct MergePlan {
  bool jsonl = false;
  std::vector<std::string> inputs;
  struct Cell {
    std::uint64_t index = 0;
    std::size_t input = 0;  // into `inputs`
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
  };
  std::vector<Cell> cells;
  std::vector<std::uint64_t> missing;  // gaps, with allow_gaps
};

/// Scans every input, rejecting incomplete shards, empty inputs,
/// duplicates, gaps, records of another schema version and (JSONL) cells
/// whose recomputed aggregate disagrees with the recorded one.
/// `allow_gaps` turns gaps (and an all-empty input set) into entries in
/// `missing` instead of errors — the partial-fleet merge path.
MergePlan plan_merge(const std::vector<std::string>& inputs, bool jsonl,
                     bool allow_gaps) {
  // cell_index -> (block, input)
  std::map<std::uint64_t, std::pair<CellBlock, std::size_t>> cells;
  std::map<std::uint64_t, std::string> corrupt;
  for (std::size_t in = 0; in < inputs.size(); ++in) {
    const std::string& path = inputs[in];
    FileScan scan;
    AggregateCheck check(path);
    try {
      scan = jsonl ? scan_jsonl_records(path, check.visitor()) : scan_csv(path);
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
  plan.jsonl = jsonl;
  plan.inputs = inputs;
  if (cells.empty()) {
    if (allow_gaps) return plan;  // every surviving shard owned zero cells
    throw MergeError(MergeFault::kCorrupt,
                     "no complete cells to merge in any input");
  }

  // Every cell of one invocation carries the same replicate seed count, so
  // a block with fewer runs — e.g. the unprovable final CSV block of a
  // killed shard — is an incomplete cell, not a merge candidate. Prefer a
  // provably closed block as the reference; failing that (every file's
  // only block is open, possible in CSV-only merges), the largest block —
  // a killed cell can only be smaller than its siblings.
  const CellBlock* reference = nullptr;
  for (const auto& [index, entry] : cells)
    if (entry.first.closed) {
      reference = &entry.first;
      break;
    }
  if (reference == nullptr)
    for (const auto& [index, entry] : cells)
      if (reference == nullptr ||
          entry.first.seeds.size() > reference->seeds.size())
        reference = &entry.first;
  for (const auto& [index, entry] : cells)
    if (entry.first.seeds.size() != reference->seeds.size())
      throw MergeError(
          MergeFault::kCorrupt,
          inputs[entry.second] + ": " + describe(entry.first.key) + " has " +
              std::to_string(entry.first.seeds.size()) +
              " run record(s) but " + describe(reference->key) + " has " +
              std::to_string(reference->seeds.size()) +
              " — incomplete shard output? finish it with --resume before "
              "merging");
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
    plan.cells.push_back(
        {index, entry.second, entry.first.begin_offset, entry.first.end_offset});
  return plan;
}

/// Writes the merged file: the canonical CSV header (CSV only), then every
/// block's bytes, copied verbatim from its input in cell-index order. The
/// scan validated each byte range, so the copy is the whole output.
void splice(const MergePlan& plan, std::ostream& out) {
  if (!plan.jsonl) report::write_csv_header(out);
  std::vector<std::ifstream> files(plan.inputs.size());
  std::vector<char> buf;
  for (const MergePlan::Cell& c : plan.cells) {
    std::ifstream& in = files[c.input];
    if (!in.is_open()) in.open(plan.inputs[c.input], std::ios::binary);
    buf.resize(c.end - c.begin);
    in.seekg(static_cast<std::streamoff>(c.begin));
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    if (!in)
      throw MergeError(MergeFault::kCorrupt,
                       plan.inputs[c.input] + ": cell " +
                           std::to_string(c.index) +
                           " changed or vanished while merging");
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
}

std::string merge_to_string(const std::vector<std::string>& inputs, bool jsonl,
                            std::vector<std::uint64_t>* cell_indices,
                            bool allow_gaps,
                            std::vector<std::uint64_t>* missing) {
  const MergePlan plan = plan_merge(inputs, jsonl, allow_gaps);
  std::ostringstream os;
  splice(plan, os);
  for (const MergePlan::Cell& c : plan.cells)
    if (cell_indices) cell_indices->push_back(c.index);
  if (missing)
    missing->insert(missing->end(), plan.missing.begin(), plan.missing.end());
  return std::move(os).str();
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

std::string merge_jsonl(const std::vector<std::string>& inputs,
                        std::vector<std::uint64_t>* cell_indices,
                        bool allow_gaps, std::vector<std::uint64_t>* missing) {
  return merge_to_string(inputs, /*jsonl=*/true, cell_indices, allow_gaps,
                         missing);
}

std::string merge_csv(const std::vector<std::string>& inputs,
                      std::vector<std::uint64_t>* cell_indices,
                      bool allow_gaps, std::vector<std::uint64_t>* missing) {
  return merge_to_string(inputs, /*jsonl=*/false, cell_indices, allow_gaps,
                         missing);
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
  if (!o.csv_out.empty() && o.csv_in.empty())
    return usage_error("--csv needs .csv shard inputs");
  if (o.csv_out.empty() && !o.csv_in.empty())
    return usage_error(".csv inputs given but no --csv output");
  if (!o.jsonl_out.empty() && o.jsonl_in.empty())
    return usage_error("--jsonl needs .jsonl shard inputs");
  if (o.jsonl_out.empty() && !o.jsonl_in.empty())
    return usage_error(".jsonl inputs given but no --jsonl output");
  if (!o.metrics_out.empty() && o.metrics_in.empty())
    return usage_error("--metrics needs .json shard inputs");
  if (o.metrics_out.empty() && !o.metrics_in.empty())
    return usage_error(".json inputs given but no --metrics output");

  try {
    // Plan (scan and validate) both formats before writing either.
    MergePlan csv, jsonl;
    if (!o.csv_out.empty()) csv = plan_merge(o.csv_in, false, o.allow_gaps);
    if (!o.jsonl_out.empty()) jsonl = plan_merge(o.jsonl_in, true, o.allow_gaps);
    const auto indices = [](const MergePlan& plan) {
      std::vector<std::uint64_t> v;
      v.reserve(plan.cells.size());
      for (const MergePlan::Cell& c : plan.cells) v.push_back(c.index);
      return v;
    };
    const std::vector<std::uint64_t> csv_cells = indices(csv);
    const std::vector<std::uint64_t> jsonl_cells = indices(jsonl);
    if (!o.csv_out.empty() && !o.jsonl_out.empty() && csv_cells != jsonl_cells)
      throw MergeError(
          MergeFault::kCorrupt,
          "the .csv and .jsonl shard sets cover different cells — are they "
          "from the same sweep invocation?");
    if (merged_cells != nullptr)
      *merged_cells = !o.csv_out.empty() ? csv_cells : jsonl_cells;

    const auto publish = [](const std::string& path, const MergePlan& plan) {
      publish_file(path, [&plan](std::ostream& os) { splice(plan, os); },
                   "output");
    };
    if (!o.csv_out.empty()) {
      publish(o.csv_out, csv);
      out << "mtr_merge: " << csv_cells.size() << " cell(s) from "
          << o.csv_in.size() << " shard file(s) -> " << o.csv_out << '\n';
    }
    if (!o.jsonl_out.empty()) {
      publish(o.jsonl_out, jsonl);
      out << "mtr_merge: " << jsonl_cells.size() << " cell(s) from "
          << o.jsonl_in.size() << " shard file(s) -> " << o.jsonl_out << '\n';
    }
    const std::vector<std::uint64_t>& missing =
        !o.csv_out.empty() ? csv.missing : jsonl.missing;
    if (!missing.empty()) {
      err << "mtr_merge: " << missing.size()
          << " cell(s) missing (merged with --allow-gaps):";
      for (const std::uint64_t c : missing) err << ' ' << c;
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
