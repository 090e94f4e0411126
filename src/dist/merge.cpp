#include "dist/merge.hpp"

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
    "incomplete shard tails, duplicate/conflicting cells, gaps in the cell\n"
    "index space) and re-emitted in grid order; JSONL cell aggregates are\n"
    "recomputed from the run records and cross-checked against the shard.\n"
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

/// "path:line" of a block's `i`-th run record (run lines are contiguous).
std::string run_line_at(const std::string& path, const CellBlock& b,
                        std::size_t i) {
  return path + ":" + std::to_string(b.first_line + i);
}

/// Every input's blocks in one cell_index -> (block, source) map.
using GatheredBlocks = std::map<std::uint64_t, std::pair<CellBlock, std::string>>;

/// Collects every input's blocks, rejecting incomplete shards, empty
/// inputs, duplicates, gaps, and records of another schema version.
/// `allow_gaps` turns gaps (and an all-empty input set) into entries in
/// `missing_out` instead of errors — the partial-fleet merge path.
GatheredBlocks gather_blocks(const std::vector<std::string>& inputs,
                             bool jsonl, bool allow_gaps = false,
                             std::vector<std::uint64_t>* missing_out = nullptr) {
  GatheredBlocks cells;
  for (const std::string& path : inputs) {
    FileScan scan;
    try {
      scan = jsonl ? scan_jsonl(path) : scan_csv(path);
    } catch (const SchemaError& e) {
      throw MergeError(MergeFault::kCorrupt, e.what());
    }
    if (!scan.clean)
      throw MergeError(
          MergeFault::kCorrupt,
          scan.tail_error +
              " — the shard looks killed mid-write; finish it with --resume "
              "(or re-run it) before merging");
    // A blockless file is fine: a shard can own zero cells of a small
    // sweep and still leave its (empty) output behind.
    for (CellBlock& b : scan.blocks) {
      const auto [it, inserted] =
          cells.emplace(b.key.cell_index, std::make_pair(std::move(b), path));
      if (!inserted) {
        const CellBlock& first = it->second.first;
        throw MergeError(MergeFault::kGapOrDuplicate,
                         "duplicate " + describe(first.key) + " in " +
                             it->second.second + " and " + path +
                             " — overlapping shards?");
      }
    }
  }
  if (cells.empty()) {
    if (allow_gaps) return cells;  // every surviving shard owned zero cells
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
  if (reference != nullptr) {
    for (const auto& [index, entry] : cells)
      if (entry.first.seeds.size() != reference->seeds.size())
        throw MergeError(
            MergeFault::kCorrupt,
            entry.second + ": " + describe(entry.first.key) + " has " +
                std::to_string(entry.first.seeds.size()) +
                " run record(s) but " + describe(reference->key) + " has " +
                std::to_string(reference->seeds.size()) +
                " — incomplete shard output? finish it with --resume before "
                "merging");
  }

  // Contiguity over [min, max]: a missing index means a shard was left out.
  {
    std::vector<std::uint64_t> missing;
    std::uint64_t expect = cells.begin()->first;
    for (const auto& [index, block] : cells) {
      while (expect < index) missing.push_back(expect++);
      expect = index + 1;
    }
    if (!missing.empty()) {
      if (allow_gaps) {
        if (missing_out != nullptr)
          missing_out->insert(missing_out->end(), missing.begin(),
                              missing.end());
      } else {
        std::string list;
        for (std::size_t i = 0; i < missing.size() && i < 10; ++i)
          list += (i ? ", " : "") + std::to_string(missing[i]);
        if (missing.size() > 10) list += ", ...";
        throw MergeError(MergeFault::kGapOrDuplicate,
                         "cell index gap — missing cell(s) " + list +
                             " — was a shard's output left out of the merge?");
      }
    }
  }
  return cells;
}

/// Rebuilds the `record:"cell"` aggregate line from the block's run
/// records, exactly the way JsonlSink computes it.
std::string recompute_cell_line(const CellBlock& b, const std::string& path) {
  report::CellSummary s;
  s.key = b.key;
  s.seeds = b.run_lines.size();
  for (const std::string& key : cell_stat_keys()) s.stats.push_back({key, {}});
  for (const auto& cols : cell_sketch_columns())
    s.sketches.emplace_back(cols.first, QuantileSketch{});

  for (std::size_t i = 0; i < b.run_lines.size(); ++i) {
    const std::string& line = b.run_lines[i];
    std::map<std::string, std::string> f;
    if (!parse_json_line(line, f))
      throw MergeError(MergeFault::kCorrupt,
                       run_line_at(path, b, i) + ": unparseable run record in " +
                           describe(b.key));
    const auto workload = json_string(f, "workload");
    const auto source_ok = json_bool(f, "source_ok");
    if (!workload || !source_ok)
      throw MergeError(MergeFault::kCorrupt,
                       run_line_at(path, b, i) + ": run record of " +
                           describe(b.key) +
                           " is missing or has an invalid field '" +
                           (!workload ? "workload" : "source_ok") + "'");
    s.workload = *workload;  // constant within a cell
    s.source_ok = s.source_ok && *source_ok;
    for (report::CellStatSummary& st : s.stats) {
      const auto v = json_double(f, st.key);
      if (!v)
        throw MergeError(MergeFault::kCorrupt,
                         run_line_at(path, b, i) + ": run record of " +
                             describe(b.key) +
                             " is missing or has an invalid field '" + st.key +
                             "'");
      st.stats.add(*v);
    }
    // Run records carry the per-run sketches verbatim; merging them is
    // exact (bucket counts sum), so the recomputed cell quantiles come out
    // byte-identical to the single-process run.
    const auto& columns = cell_sketch_columns();
    for (std::size_t k = 0; k < columns.size(); ++k) {
      const std::string& run_key = columns[k].second;
      const auto token = json_string(f, run_key);
      const auto sketch = token ? report::decode_sketch(*token) : std::nullopt;
      if (!sketch)
        throw MergeError(MergeFault::kCorrupt,
                         run_line_at(path, b, i) + ": run record of " +
                             describe(b.key) +
                             " is missing or has an invalid field '" + run_key +
                             "'");
      s.sketches[k].second.merge(*sketch);
    }
  }

  std::ostringstream os;
  report::write_cell_record(os, s);
  return os.str();
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
  const GatheredBlocks cells =
      gather_blocks(inputs, /*jsonl=*/true, allow_gaps, missing);
  std::string out;
  for (const auto& [index, entry] : cells) {
    const CellBlock& b = entry.first;
    for (const std::string& line : b.run_lines) {
      out += line;
      out += '\n';
    }
    // Recompute the aggregate from the run records; a mismatch against
    // what the shard wrote means the file was corrupted or hand-edited.
    const std::string cell_line = recompute_cell_line(b, entry.second);
    if (cell_line != b.cell_line + "\n")
      throw MergeError(
          MergeFault::kCorrupt,
          entry.second + ": recomputed aggregate for " + describe(b.key) +
              " does not match the recorded summary — corrupt shard output?");
    out += cell_line;
    if (cell_indices) cell_indices->push_back(index);
  }
  return out;
}

std::string merge_csv(const std::vector<std::string>& inputs,
                      std::vector<std::uint64_t>* cell_indices,
                      bool allow_gaps, std::vector<std::uint64_t>* missing) {
  const GatheredBlocks cells =
      gather_blocks(inputs, /*jsonl=*/false, allow_gaps, missing);
  std::ostringstream os;
  report::write_csv_header(os);
  std::string out = os.str();
  for (const auto& [index, entry] : cells) {
    for (const std::string& line : entry.first.run_lines) {
      out += line;
      out += '\n';
    }
    if (cell_indices) cell_indices->push_back(index);
  }
  return out;
}

int run_merge(const MergeOptions& o, std::ostream& out, std::ostream& err) {
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
    std::vector<std::uint64_t> csv_cells, jsonl_cells;
    std::vector<std::uint64_t> csv_missing, jsonl_missing;
    std::string csv_bytes, jsonl_bytes;
    if (!o.csv_out.empty())
      csv_bytes = merge_csv(o.csv_in, &csv_cells, o.allow_gaps, &csv_missing);
    if (!o.jsonl_out.empty())
      jsonl_bytes =
          merge_jsonl(o.jsonl_in, &jsonl_cells, o.allow_gaps, &jsonl_missing);
    if (!o.csv_out.empty() && !o.jsonl_out.empty() && csv_cells != jsonl_cells)
      throw MergeError(
          MergeFault::kCorrupt,
          "the .csv and .jsonl shard sets cover different cells — are they "
          "from the same sweep invocation?");

    if (!o.csv_out.empty()) {
      publish_file(o.csv_out, csv_bytes, "output");
      out << "mtr_merge: " << csv_cells.size() << " cell(s) from "
          << o.csv_in.size() << " shard file(s) -> " << o.csv_out << '\n';
    }
    if (!o.jsonl_out.empty()) {
      publish_file(o.jsonl_out, jsonl_bytes, "output");
      out << "mtr_merge: " << jsonl_cells.size() << " cell(s) from "
          << o.jsonl_in.size() << " shard file(s) -> " << o.jsonl_out << '\n';
    }
    const std::vector<std::uint64_t>& missing =
        !o.csv_out.empty() ? csv_missing : jsonl_missing;
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
