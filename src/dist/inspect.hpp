// The mtr_inspect analysis CLI: offline readers over the three artifact
// kinds the pipeline emits — metrics.json (quantile tables, kernel
// counters, ASCII sparklines of the telemetry series), result JSONL
// (top-N cells by billing gap), and Perfetto trace JSON (event census).
// `--compare A B` diffs two metrics files per counter — with side-by-side
// A/B sparklines of every gauge series plus a delta row — and exits nonzero
// when any counter-class value differs — the CI check that shard-folded
// metrics equal a single-process run's exactly (timing-class values:
// wall clocks, phases, pool utilization, the cell_seconds sketch — are
// reported but never fail the comparison; they legitimately differ
// across machines and shardings).
//
// --metrics and --compare read through dist::read_metrics_json, and --trace
// checks the trace against every rule write_perfetto_json keeps: the
// schema tag, dropped <= recorded, known ph and metadata kinds, a
// thread_name for every span/instant tid, one cat tag on all events or on
// none, counter tracks that are a Telemetry series or the victim track,
// and spans + instants == recorded - dropped + 1. A structural violation
// exits 2 with a message that starts with the file's path.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "dist/metrics.hpp"

namespace mtr::trace {
class TimeSeries;
}

namespace mtr::dist {

struct InspectOptions {
  bool help = false;
  std::string metrics_path;  // --metrics FILE: render one metrics.json
  std::string trace_path;    // --trace FILE: summarize a Perfetto trace
  std::string jsonl_path;    // --jsonl FILE: rank cells by billing gap
  std::uint64_t top = 10;    // --top N (with --jsonl)
  std::vector<std::string> compare;  // --compare A B: diff two metrics files
  std::string status_path;   // --status-file FILE: render a heartbeat
  /// --stale-after S (with --status-file): heartbeat age beyond which the
  /// shard counts as hung. The default is the same constant the mtr_fleet
  /// supervisor kills on, so inspector and supervisor never disagree.
  double stale_after = 0.0;  // 0 = kDefaultStaleAfterSeconds
};

/// Parses argv; throws UsageError on malformed input or when not exactly
/// one mode is selected.
InspectOptions parse_inspect_args(int argc, const char* const* argv);

/// One flattened metric: dotted name -> value. Sketches flatten to their
/// count/zero/min/max plus the p50/p90/p99/p999 table; series to their
/// samples/width/min/max/sum. All are deterministic functions of the
/// underlying structures, so counter-class entries compare exactly.
using FlatMetric = std::pair<std::string, double>;

struct FlatMetrics {
  std::vector<FlatMetric> counters;  // must fold exactly across shards
  std::vector<FlatMetric> timings;   // machine/sharding dependent
};

FlatMetrics flatten_metrics(const trace::SweepMetrics& m);

/// One ASCII sparkline row over the series' buckets: ' ' for empty
/// buckets, otherwise the bucket average mapped onto " .:-=+*#%@".
std::string render_sparkline(const trace::TimeSeries& s);

/// Renders the --metrics report / diffs two parsed files. compare returns
/// the process exit code (0: counters identical, 1: any counter delta).
void render_metrics_report(std::ostream& out, const MetricsFile& f);
int compare_metrics(std::ostream& out, const std::string& name_a,
                    const MetricsFile& a, const std::string& name_b,
                    const MetricsFile& b);

/// Runs the selected mode. Returns a process exit code (0 ok, 1 compare
/// found counter deltas or --status-file found a stale heartbeat, 2 usage
/// error surfaced by inspect_main).
int run_inspect(const InspectOptions& options, std::ostream& out);

/// The whole CLI: parse + run + error reporting. `main` forwards here.
int inspect_main(int argc, const char* const* argv);

}  // namespace mtr::dist
