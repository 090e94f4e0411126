// Reading and folding metrics.json shard files for mtr_merge --metrics and
// mtr_inspect. The writer lives in src/trace (write_metrics_json); this is
// its inverse: typed parsing over dist/json plus the by-sweep-name fold
// that turns N shard metrics files into the one a single-machine run would
// have written (modulo wall-clock, which sums across shards). Reads only
// the current schema (trace::kMetricsSchemaVersion); files from an older
// metertrust are refused.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/metrics.hpp"

namespace mtr::dist {

/// One parsed metrics.json document.
struct MetricsFile {
  std::uint64_t schema = 0;
  std::uint64_t shards = 0;
  std::vector<trace::SweepMetrics> sweeps;
};

/// Parses a metrics.json written by trace::write_metrics_json. Throws
/// std::runtime_error (prefixed with the path) on unreadable files,
/// malformed JSON, or a wrong record tag, and SchemaError (naming
/// path:line and byte) on any schema version but kMetricsSchemaVersion.
MetricsFile read_metrics_json(const std::string& path);

/// Folds shard metrics by sweep name — first-seen sweep order, counters
/// summed, gauges maxed (SweepMetrics::merge) — and sums the shard counts.
MetricsFile fold_metrics(const std::vector<MetricsFile>& files);

}  // namespace mtr::dist
