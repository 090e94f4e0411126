// Reading and folding metrics.json shard files for mtr_merge --metrics and
// mtr_inspect. The writer lives in src/trace (write_metrics_json); this is
// its inverse: typed parsing over dist/json plus the by-sweep-name fold
// that turns N shard metrics files into the one a single-machine run would
// have written (modulo wall-clock, which sums across shards). Reads only
// the current schema (trace::kMetricsSchemaVersion); files from an older
// metertrust are refused.
//
// This reader is the one owner of the metrics schema (mtr_merge, mtr_fleet
// and mtr_inspect all read through it; mtr_merge and mtr_inspect exit 2 on
// a refusal). It keys on the writer's own name tables and enforces only
// invariants the writer keeps by construction.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/metrics.hpp"

namespace mtr::dist {

/// One parsed metrics.json document.
struct MetricsFile {
  std::string path;  // where read_metrics_json found it; empty if folded
  std::uint64_t schema = 0;
  std::uint64_t shards = 0;
  std::vector<trace::SweepMetrics> sweeps;
};

/// Parses a metrics.json written by trace::write_metrics_json. Throws
/// SchemaError (naming path:line and byte) on any schema version but
/// kMetricsSchemaVersion, and std::runtime_error (prefixed with the path,
/// then the sweep) on anything else the writer cannot produce: malformed
/// JSON, a missing or mistyped field, a repeated sweep name, `kernel`,
/// `series` or `sketches` keys other than the writer's names in order, a
/// series bucket or sketch that is inconsistent in itself, or runs < cells,
/// max_cell_seconds > cell_wall_seconds, ticks_coalesced > timer_ticks, or
/// more busy slots than pool threads.
MetricsFile read_metrics_json(const std::string& path);

/// Folds shard metrics by sweep name — first-seen sweep order, counters
/// summed, gauges maxed (SweepMetrics::merge) — and sums the shard counts.
/// Throws std::runtime_error naming the file whose series would overflow
/// the fold.
MetricsFile fold_metrics(const std::vector<MetricsFile>& files);

}  // namespace mtr::dist
