// The metrics side of the observability layer: fixed kernel counters
// (KernelStats, filled behind `if (stats_)` guards and summed up the
// cell -> sweep aggregation chain), a lightweight named counter/timer
// registry with an RAII scope timer (phase wall-clock), worker-pool
// utilization, and the schema-versioned metrics.json writer mtr_sweep
// --metrics emits (and mtr_merge folds across shards).
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "trace/series.hpp"

namespace mtr::trace {

/// Per-run kernel engine counters. A plain struct of uint64s so collection
/// is a guarded increment and aggregation is addition; `merge` sums every
/// counter and maxes the gauge.
struct KernelStats {
  std::uint64_t events_popped = 0;     // calendar-queue pops (event engine)
  std::uint64_t idle_leaps = 0;        // bulk idle coalescings taken
  std::uint64_t running_leaps = 0;     // bulk pure-compute coalescings taken
  std::uint64_t ticks_coalesced = 0;   // ticks covered by those leaps
  std::uint64_t timer_ticks = 0;       // jiffies landed (both engines)
  std::uint64_t charges_enqueued = 0;  // enqueue_charge calls
  std::uint64_t charge_flushes = 0;    // non-empty batch flushes
  std::uint64_t context_switches = 0;  // switch-outs (voluntary + preempt)
  std::uint64_t stale_events = 0;      // lazily-invalidated queue entries
  std::uint64_t max_event_queue_depth = 0;  // gauge: deepest calendar queue

  void merge(const KernelStats& o);

  /// Visits every counter as f(name, field) — the single list serializers
  /// and parsers key on; the mutable overload serves field-by-name parsers.
  template <typename F>
  void for_each(F&& f) const { visit(*this, f); }
  template <typename F>
  void for_each(F&& f) { visit(*this, f); }

 private:
  template <typename Self, typename F>
  static void visit(Self& s, F& f) {
    f("events_popped", s.events_popped);
    f("idle_leaps", s.idle_leaps);
    f("running_leaps", s.running_leaps);
    f("ticks_coalesced", s.ticks_coalesced);
    f("timer_ticks", s.timer_ticks);
    f("charges_enqueued", s.charges_enqueued);
    f("charge_flushes", s.charge_flushes);
    f("context_switches", s.context_switches);
    f("stale_events", s.stale_events);
    f("max_event_queue_depth", s.max_event_queue_depth);
  }
};

/// One named metric: an invocation count plus accumulated seconds (zero for
/// pure counters).
struct MetricEntry {
  std::string name;
  std::uint64_t count = 0;
  double seconds = 0.0;
};

/// Insertion-ordered named counters/timers. Linear lookup: registries hold
/// a handful of phases, not thousands of series.
class MetricsRegistry {
 public:
  void add(std::string_view name, std::uint64_t count, double seconds = 0.0);
  void merge(const MetricsRegistry& o);
  const std::vector<MetricEntry>& entries() const { return entries_; }

 private:
  MetricEntry& entry(std::string_view name);
  std::vector<MetricEntry> entries_;
};

/// RAII phase timer: adds one invocation and the elapsed wall seconds to
/// `name` on scope exit.
class ScopeTimer {
 public:
  ScopeTimer(MetricsRegistry& registry, std::string_view name)
      : registry_(registry), name_(name),
        start_(std::chrono::steady_clock::now()) {}
  ~ScopeTimer() {
    const std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - start_;
    registry_.add(name_, 1, dt.count());
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  MetricsRegistry& registry_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

/// BatchRunner worker-pool utilization: per-worker busy seconds against the
/// pool's wall time — the straggler baseline for the work-stealing tier.
struct PoolMetrics {
  std::uint64_t threads = 0;          // widest pool observed
  double wall_seconds = 0.0;          // summed across runner invocations
  std::vector<double> busy_seconds;   // per worker slot, element-wise summed
  void merge(const PoolMetrics& o);
};

/// Everything metrics.json records about one sweep: cell/run counts and
/// wall-clock spread, the summed kernel counters, phase timers, pool
/// utilization, and (schema v2) the folded run telemetry — gauge series
/// plus quantile sketches.
struct SweepMetrics {
  std::string sweep;
  std::uint64_t cells = 0;
  std::uint64_t runs = 0;
  double cell_wall_seconds = 0.0;  // summed per-cell compute time
  double max_cell_seconds = 0.0;   // the straggler cell
  KernelStats kernel;
  MetricsRegistry phases;
  PoolMetrics pool;
  Telemetry telemetry;

  void merge(const SweepMetrics& o);
};

/// Version stamped into metrics.json, and the only one
/// dist::read_metrics_json accepts. v2 added the "series" and "sketches"
/// sections.
inline constexpr std::uint64_t kMetricsSchemaVersion = 2;

/// Writes the metrics.json document: one object with a schema stamp, the
/// shard count the data covers, and one entry per sweep. Doubles render
/// with %.17g so mtr_merge can fold shard files and re-emit byte-stable
/// output.
void write_metrics_json(std::ostream& os,
                        const std::vector<SweepMetrics>& sweeps,
                        std::uint64_t shards = 1);

}  // namespace mtr::trace
