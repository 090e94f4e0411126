#include "trace/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "common/format.hpp"

namespace mtr::trace {

void KernelStats::merge(const KernelStats& o) {
  events_popped += o.events_popped;
  idle_leaps += o.idle_leaps;
  running_leaps += o.running_leaps;
  ticks_coalesced += o.ticks_coalesced;
  timer_ticks += o.timer_ticks;
  charges_enqueued += o.charges_enqueued;
  charge_flushes += o.charge_flushes;
  context_switches += o.context_switches;
  stale_events += o.stale_events;
  max_event_queue_depth = std::max(max_event_queue_depth, o.max_event_queue_depth);
}

MetricEntry& MetricsRegistry::entry(std::string_view name) {
  for (MetricEntry& e : entries_)
    if (e.name == name) return e;
  entries_.push_back({std::string(name), 0, 0.0});
  return entries_.back();
}

void MetricsRegistry::add(std::string_view name, std::uint64_t count,
                          double seconds) {
  MetricEntry& e = entry(name);
  e.count += count;
  e.seconds += seconds;
}

void MetricsRegistry::merge(const MetricsRegistry& o) {
  for (const MetricEntry& e : o.entries_) add(e.name, e.count, e.seconds);
}

void PoolMetrics::merge(const PoolMetrics& o) {
  threads = std::max(threads, o.threads);
  wall_seconds += o.wall_seconds;
  if (busy_seconds.size() < o.busy_seconds.size())
    busy_seconds.resize(o.busy_seconds.size(), 0.0);
  for (std::size_t i = 0; i < o.busy_seconds.size(); ++i)
    busy_seconds[i] += o.busy_seconds[i];
}

void SweepMetrics::merge(const SweepMetrics& o) {
  cells += o.cells;
  runs += o.runs;
  cell_wall_seconds += o.cell_wall_seconds;
  max_cell_seconds = std::max(max_cell_seconds, o.max_cell_seconds);
  kernel.merge(o.kernel);
  phases.merge(o.phases);
  pool.merge(o.pool);
  telemetry.merge(o.telemetry);
}

void write_metrics_json(std::ostream& os,
                        const std::vector<SweepMetrics>& sweeps,
                        std::uint64_t shards) {
  os << "{\"schema\": " << kMetricsSchemaVersion
     << ", \"record\": \"metrics\", \"shards\": " << shards
     << ", \"sweeps\": [";
  bool first_sweep = true;
  for (const SweepMetrics& s : sweeps) {
    os << (first_sweep ? "\n" : ",\n");
    first_sweep = false;
    os << " {\"sweep\": " << json_quote(s.sweep) << ", \"cells\": " << s.cells
       << ", \"runs\": " << s.runs
       << ", \"cell_wall_seconds\": " << json_number(s.cell_wall_seconds)
       << ", \"max_cell_seconds\": " << json_number(s.max_cell_seconds);
    os << ",\n  \"kernel\": {";
    bool first = true;
    s.kernel.for_each([&](const char* name, std::uint64_t v) {
      os << (first ? "" : ", ") << '"' << name << "\": " << v;
      first = false;
    });
    os << "},\n  \"phases\": [";
    first = true;
    for (const MetricEntry& e : s.phases.entries()) {
      os << (first ? "" : ", ") << "{\"name\": " << json_quote(e.name)
         << ", \"count\": " << e.count
         << ", \"seconds\": " << json_number(e.seconds) << '}';
      first = false;
    }
    os << "],\n  \"pool\": {\"threads\": " << s.pool.threads
       << ", \"wall_seconds\": " << json_number(s.pool.wall_seconds)
       << ", \"busy_seconds\": [";
    first = true;
    for (const double b : s.pool.busy_seconds) {
      os << (first ? "" : ", ") << json_number(b);
      first = false;
    }
    os << "]},\n  \"series\": {";
    // Series buckets are [count, min, max, sum] rows — all integers, so a
    // parse -> re-emit round trip is trivially byte-stable.
    first = true;
    s.telemetry.for_each_series([&](const char* name, const TimeSeries& ts) {
      os << (first ? "" : ", ") << '"' << name
         << "\": {\"width\": " << ts.width() << ", \"buckets\": [";
      bool first_bucket = true;
      for (std::size_t i = 0; i < ts.size(); ++i) {
        const SeriesBucket& b = ts.bucket(i);
        os << (first_bucket ? "" : ", ") << '[' << b.count << ", " << b.min
           << ", " << b.max << ", " << b.sum << ']';
        first_bucket = false;
      }
      os << "]}";
      first = false;
    });
    os << "},\n  \"sketches\": {";
    first = true;
    s.telemetry.for_each_sketch([&](const char* name,
                                    const QuantileSketch& sk) {
      os << (first ? "" : ", ") << '"' << name
         << "\": {\"count\": " << sk.count() << ", \"zero\": " << sk.zero_count()
         << ", \"min\": " << json_number(sk.min())
         << ", \"max\": " << json_number(sk.max());
      const auto buckets = [&](const char* key,
                               const QuantileSketch::Buckets& bs) {
        os << ", \"" << key << "\": [";
        bool first_bucket = true;
        for (const auto& [index, n] : bs) {
          os << (first_bucket ? "" : ", ") << '[' << index << ", " << n << ']';
          first_bucket = false;
        }
        os << ']';
      };
      buckets("neg", sk.negative());
      buckets("pos", sk.positive());
      os << '}';
      first = false;
    });
    os << "}}";
  }
  os << "\n]}\n";
}

}  // namespace mtr::trace
