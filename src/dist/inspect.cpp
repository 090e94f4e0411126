#include "dist/inspect.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string_view>

#include "common/format.hpp"
#include "common/stats.hpp"
#include "dist/flags.hpp"
#include "dist/json.hpp"
#include "dist/records.hpp"
#include "dist/status.hpp"
#include "trace/perfetto.hpp"
#include "trace/series.hpp"

namespace mtr::dist {
namespace {

constexpr const char* kUsage = R"(usage: mtr_inspect MODE [options]

modes (exactly one):
  --metrics FILE   render a metrics.json report: kernel counters, phase
                   timers, quantile tables (p50/p90/p99/p999) and ASCII
                   sparklines of the telemetry series
  --trace FILE     summarize a Perfetto trace JSON: event census, counter
                   tracks, categories, schema stamp
  --jsonl FILE     rank the cells of a result JSONL by billing gap
                   (mean billed minus true seconds)
  --compare A B    diff two metrics files; prints per-counter deltas plus
                   side-by-side A/B sparklines of every gauge series with
                   a delta row, and exits 1 when any counter-class value
                   differs (timing-class values -- wall clocks, phases,
                   pool, the cell_seconds sketch -- are reported, never
                   fatal)
  --status-file F  render a mtr_sweep --status-file heartbeat: sweep,
                   cells done/total, elapsed, ETA, worker busy fractions,
                   heartbeat age; exits 1 when the heartbeat is stale

options:
  --top N          with --jsonl: how many cells to print (default 10)
  --stale-after S  with --status-file: seconds of heartbeat age that count
                   as stale (default 30, the same threshold the mtr_fleet
                   supervisor kills hung shards on)
  --help           this text

exit codes: 0 ok; 1 --compare found a counter delta or --status-file a
stale heartbeat; 2 usage error, or an input that breaks its schema
)";

/// Compact %g for report tables; doubles in metrics files are exact
/// %.17g round-trips, but the report is for eyes, not diffing.
std::string fmt6(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Min, max and sum over a series' non-empty buckets; zeros when empty.
struct SeriesRange {
  std::int64_t lo = 0, hi = 0;
  __int128 sum = 0;  // each bucket sum is a valid int64, not their total
};

SeriesRange series_range(const trace::TimeSeries& s) {
  SeriesRange r;
  bool any = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const trace::SeriesBucket& b = s.bucket(i);
    if (b.count == 0) continue;
    r.lo = any ? std::min(r.lo, b.min) : b.min;
    r.hi = any ? std::max(r.hi, b.max) : b.max;
    r.sum += b.sum;
    any = true;
  }
  return r;
}

void flatten_sketch(const char* name, const QuantileSketch& s, bool counter,
                    FlatMetrics& out) {
  auto& dst = counter ? out.counters : out.timings;
  const std::string base = std::string("sketches.") + name + ".";
  dst.emplace_back(base + "count", static_cast<double>(s.count()));
  dst.emplace_back(base + "zero", static_cast<double>(s.zero_count()));
  dst.emplace_back(base + "min", s.min());
  dst.emplace_back(base + "max", s.max());
  dst.emplace_back(base + "p50", s.quantile(0.50));
  dst.emplace_back(base + "p90", s.quantile(0.90));
  dst.emplace_back(base + "p99", s.quantile(0.99));
  dst.emplace_back(base + "p999", s.quantile(0.999));
}

}  // namespace

FlatMetrics flatten_metrics(const trace::SweepMetrics& m) {
  FlatMetrics out;
  out.counters.emplace_back("cells", static_cast<double>(m.cells));
  out.counters.emplace_back("runs", static_cast<double>(m.runs));
  m.kernel.for_each([&](const char* name, std::uint64_t v) {
    out.counters.emplace_back(std::string("kernel.") + name,
                              static_cast<double>(v));
  });
  m.telemetry.for_each_series([&](const char* name, const trace::TimeSeries& s) {
    const std::string base = std::string("series.") + name + ".";
    const SeriesRange r = series_range(s);
    out.counters.emplace_back(base + "samples",
                              static_cast<double>(s.samples()));
    out.counters.emplace_back(base + "width", static_cast<double>(s.width()));
    out.counters.emplace_back(base + "min", static_cast<double>(r.lo));
    out.counters.emplace_back(base + "max", static_cast<double>(r.hi));
    out.counters.emplace_back(base + "sum", static_cast<double>(r.sum));
  });
  // cell_seconds holds wall-clock values: timing-class by construction.
  m.telemetry.for_each_sketch([&](const char* name, const QuantileSketch& s) {
    flatten_sketch(name, s, std::string_view(name) != "cell_seconds", out);
  });

  out.timings.emplace_back("cell_wall_seconds", m.cell_wall_seconds);
  out.timings.emplace_back("max_cell_seconds", m.max_cell_seconds);
  for (const trace::MetricEntry& e : m.phases.entries()) {
    out.timings.emplace_back("phases." + e.name + ".count",
                             static_cast<double>(e.count));
    out.timings.emplace_back("phases." + e.name + ".seconds", e.seconds);
  }
  out.timings.emplace_back("pool.threads", static_cast<double>(m.pool.threads));
  out.timings.emplace_back("pool.wall_seconds", m.pool.wall_seconds);
  for (std::size_t i = 0; i < m.pool.busy_seconds.size(); ++i)
    out.timings.emplace_back("pool.busy_seconds." + std::to_string(i),
                             m.pool.busy_seconds[i]);
  return out;
}

std::string render_sparkline(const trace::TimeSeries& s) {
  static constexpr char kRamp[] = " .:-=+*#%@";  // 10 levels, [0] unused
  std::string line;
  if (s.empty()) return line;
  double lo = 0.0, hi = 0.0;
  bool any = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const trace::SeriesBucket& b = s.bucket(i);
    if (b.count == 0) continue;
    const double avg =
        static_cast<double>(b.sum) / static_cast<double>(b.count);
    lo = any ? std::min(lo, avg) : avg;
    hi = any ? std::max(hi, avg) : avg;
    any = true;
  }
  for (std::size_t i = 0; i < s.size(); ++i) {
    const trace::SeriesBucket& b = s.bucket(i);
    if (b.count == 0) {
      line += ' ';
      continue;
    }
    if (hi == lo) {
      line += '=';  // flat series: any level is as honest as another
      continue;
    }
    const double avg =
        static_cast<double>(b.sum) / static_cast<double>(b.count);
    const double t = (avg - lo) / (hi - lo);
    const int level = 1 + static_cast<int>(t * 8.0 + 0.5);
    line += kRamp[std::clamp(level, 1, 9)];
  }
  return line;
}

void render_metrics_report(std::ostream& out, const MetricsFile& f) {
  out << "metrics: schema " << f.schema << ", " << f.shards << " shard(s), "
      << f.sweeps.size() << " sweep(s)\n";
  for (const trace::SweepMetrics& m : f.sweeps) {
    out << "\nsweep " << m.sweep << ": cells " << m.cells << ", runs "
        << m.runs << ", cell-wall " << fmt6(m.cell_wall_seconds)
        << "s (max cell " << fmt6(m.max_cell_seconds) << "s)\n";
    out << "  kernel counters:\n";
    m.kernel.for_each([&](const char* name, std::uint64_t v) {
      out << "    " << std::left << std::setw(22) << name << std::right << " "
          << v << "\n";
    });
    if (!m.phases.entries().empty()) {
      out << "  phases:\n";
      for (const trace::MetricEntry& e : m.phases.entries())
        out << "    " << std::left << std::setw(22) << e.name << std::right
            << " n=" << e.count << " " << fmt6(e.seconds) << "s\n";
    }
    if (m.pool.threads > 0) {
      out << "  pool: threads " << m.pool.threads << ", wall "
          << fmt6(m.pool.wall_seconds) << "s, busy";
      for (const double b : m.pool.busy_seconds) out << " " << fmt6(b);
      out << "\n";
    }
    out << "  sketches:\n    " << std::left << std::setw(14) << "name"
        << std::right << std::setw(8) << "count" << std::setw(13) << "min"
        << std::setw(13) << "p50" << std::setw(13) << "p90" << std::setw(13)
        << "p99" << std::setw(13) << "p999" << std::setw(13) << "max" << "\n";
    m.telemetry.for_each_sketch([&](const char* name,
                                    const QuantileSketch& s) {
      out << "    " << std::left << std::setw(14) << name << std::right;
      if (s.empty()) {
        out << std::setw(8) << 0 << "  (empty)\n";
        return;
      }
      out << std::setw(8) << s.count() << std::setw(13) << fmt6(s.min())
          << std::setw(13) << fmt6(s.quantile(0.50)) << std::setw(13)
          << fmt6(s.quantile(0.90)) << std::setw(13) << fmt6(s.quantile(0.99))
          << std::setw(13) << fmt6(s.quantile(0.999)) << std::setw(13)
          << fmt6(s.max()) << "\n";
    });
    out << "  series (bucket width in cycles; sparkline of bucket means):\n";
    m.telemetry.for_each_series([&](const char* name,
                                    const trace::TimeSeries& s) {
      out << "    " << std::left << std::setw(14) << name << std::right;
      if (s.empty()) {
        out << " (empty)\n";
        return;
      }
      const SeriesRange r = series_range(s);
      out << " " << s.samples() << " samples @" << s.width() << "  |"
          << render_sparkline(s) << "|  min " << r.lo << " max " << r.hi
          << "\n";
    });
  }
}

namespace {

// ---------------------------------------------------------------- compare

/// Ordered name -> value view of one flat list; first-file order wins in
/// the report, lookups go through the map.
std::map<std::string, double> by_name(const std::vector<FlatMetric>& v) {
  std::map<std::string, double> m;
  for (const FlatMetric& f : v) m.emplace(f.first, f.second);
  return m;
}

/// Diffs one class of metrics; prints every differing entry (and entries
/// present on only one side) as "label name: A -> B", exact to the last
/// bit so a 1-ulp delta is visible. Returns the number of differences.
std::uint64_t diff_class(std::ostream& out, const char* label,
                         const std::vector<FlatMetric>& a,
                         const std::vector<FlatMetric>& b) {
  const std::map<std::string, double> bm = by_name(b);
  const std::map<std::string, double> am = by_name(a);
  std::uint64_t deltas = 0;
  for (const FlatMetric& fa : a) {
    const auto it = bm.find(fa.first);
    if (it == bm.end()) {
      out << "  " << label << " " << fa.first << ": " << json_number(fa.second)
          << " -> (missing)\n";
      ++deltas;
    } else if (it->second != fa.second) {
      out << "  " << label << " " << fa.first << ": " << json_number(fa.second)
          << " -> " << json_number(it->second) << " (delta "
          << json_number(it->second - fa.second) << ")\n";
      ++deltas;
    }
  }
  for (const FlatMetric& fb : b) {
    if (am.find(fb.first) != am.end()) continue;
    out << "  " << label << " " << fb.first << ": (missing) -> "
        << json_number(fb.second) << "\n";
    ++deltas;
  }
  return deltas;
}

const trace::SweepMetrics* find_sweep(const MetricsFile& f,
                                      const std::string& name) {
  for (const trace::SweepMetrics& m : f.sweeps)
    if (m.sweep == name) return &m;
  return nullptr;
}

/// Mean of one series bucket, or nullopt when the bucket holds no samples
/// (or lies past the series' end — the shorter side of a length mismatch).
std::optional<double> bucket_mean(const trace::TimeSeries& s, std::size_t i) {
  if (i >= s.size() || s.bucket(i).count == 0) return std::nullopt;
  const trace::SeriesBucket& b = s.bucket(i);
  return static_cast<double>(b.sum) / static_cast<double>(b.count);
}

/// Side-by-side gauge-series sparklines for the two files, one block per
/// series, with a delta row underneath: ' ' where the bucket means agree,
/// '+' where B runs above A, '-' where it runs below, '!' where only one
/// side has samples. Informational only — the series aggregates already
/// compare in the counter class; this shows WHERE along the timeline two
/// runs diverge, not just that they do.
void render_series_comparison(std::ostream& out, const trace::SweepMetrics& ma,
                              const trace::SweepMetrics& mb) {
  std::vector<std::pair<const char*, const trace::TimeSeries*>> sa, sb;
  ma.telemetry.for_each_series(
      [&](const char* n, const trace::TimeSeries& s) { sa.emplace_back(n, &s); });
  mb.telemetry.for_each_series(
      [&](const char* n, const trace::TimeSeries& s) { sb.emplace_back(n, &s); });
  for (std::size_t k = 0; k < sa.size() && k < sb.size(); ++k) {
    const trace::TimeSeries& a = *sa[k].second;
    const trace::TimeSeries& b = *sb[k].second;
    if (a.empty() && b.empty()) continue;
    out << "  series " << sa[k].first << " (A " << a.samples() << " samples @"
        << a.width() << ", B " << b.samples() << " samples @" << b.width()
        << "):\n";
    out << "    A     |" << render_sparkline(a) << "|\n";
    out << "    B     |" << render_sparkline(b) << "|\n";
    std::string delta;
    std::uint64_t differing = 0;
    double max_gap = 0.0;
    for (std::size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
      const std::optional<double> va = bucket_mean(a, i);
      const std::optional<double> vb = bucket_mean(b, i);
      if (!va && !vb) {
        delta += ' ';
      } else if (!va || !vb) {
        delta += '!';
        ++differing;
      } else if (*va == *vb) {
        delta += ' ';
      } else {
        delta += *vb > *va ? '+' : '-';
        max_gap = std::max(max_gap, std::abs(*vb - *va));
        ++differing;
      }
    }
    out << "    delta |" << delta << "|  ";
    if (differing == 0)
      out << "bucket means identical\n";
    else
      out << differing << " bucket(s) differ, max |mean delta| "
          << fmt6(max_gap) << "\n";
  }
}

// ------------------------------------------------------------ trace mode

/// What a trace that passed check_trace holds.
struct TraceCensus {
  std::uint64_t spans = 0, instants = 0, counters = 0;
  std::map<std::string, std::uint64_t> counter_tracks, categories;
};

/// The trace format's rules, each one kept by write_perfetto_json by
/// construction. Throws std::runtime_error naming the first violation.
TraceCensus check_trace(const json::Value& doc) {
  using Kind = json::Value::Kind;
  const auto get = [](const json::Value* obj, std::string_view name,
                      Kind kind) -> const json::Value* {
    if (obj == nullptr || obj->kind != Kind::kObject) return nullptr;
    const json::Value* v = obj->find(name);
    return v != nullptr && v->kind == kind ? v : nullptr;
  };
  const auto refuse = [](const std::string& what) {
    throw std::runtime_error(what);
  };

  const json::Value& other = json::get_object(doc, "otherData");
  const std::string schema = json::get_string(other, "schema");
  if (schema != trace::kTraceSchemaTag)
    refuse("schema tag \"" + schema + "\" is not \"" + trace::kTraceSchemaTag +
           "\"");
  const std::uint64_t recorded = json::get_u64(other, "recorded");
  const std::uint64_t dropped = json::get_u64(other, "dropped");
  if (dropped > recorded)
    refuse("dropped " + std::to_string(dropped) + " exceeds recorded " +
           std::to_string(recorded));
  json::get_u64(other, "cpu_hz");  // both printed by the summary
  json::get_u64(other, "timer_hz");

  std::set<std::string, std::less<>> series_tracks;
  trace::Telemetry{}.for_each_series(
      [&](const char* name, const trace::TimeSeries&) {
        series_tracks.insert(std::string(trace::kSeriesTrackPrefix) + name);
      });
  const json::Value& events = json::get_array(doc, "traceEvents");
  if (events.items.empty()) refuse("traceEvents is empty");
  TraceCensus c;
  std::uint64_t untagged = 0;
  std::set<std::string, std::less<>> named_tids;  // metadata comes first
  for (std::size_t i = 0; i < events.items.size(); ++i) {
    const json::Value* e = &events.items[i];
    const auto need = [&](bool ok, const std::string& what) {
      if (!ok) refuse("traceEvents[" + std::to_string(i) + "] " + what);
    };
    const json::Value* ph = get(e, "ph", Kind::kString);
    const json::Value* name = get(e, "name", Kind::kString);
    const json::Value* args = get(e, "args", Kind::kObject);
    need(ph != nullptr && name != nullptr &&
             get(e, "pid", Kind::kNumber) != nullptr,
         "lacks a ph, a numeric pid or a name");
    if (ph->text == "M") {
      need(name->text == "process_name" || name->text == "thread_name",
           "has unknown metadata kind '" + name->text + "'");
      need(get(args, "name", Kind::kString) != nullptr,
           "metadata has no args.name string");
      if (name->text == "thread_name") {
        const json::Value* tid = get(e, "tid", Kind::kNumber);
        need(tid != nullptr, "thread_name has no numeric tid");
        named_tids.insert(tid->text);
      }
      continue;
    }
    need(ph->text == "X" || ph->text == "i" || ph->text == "C",
         "has unknown ph '" + ph->text + "'");
    need(get(e, "ts", Kind::kNumber) != nullptr, "has no numeric ts");
    // The exporter stamps one category on every non-metadata event, or
    // on none of them.
    if (const json::Value* cat = e->find("cat")) {
      need(cat->kind == Kind::kString && !cat->text.empty(),
           "has a cat that is not a non-empty string");
      ++c.categories[cat->text];
    } else {
      ++untagged;
    }
    if (ph->text == "C") {
      ++c.counters;
      ++c.counter_tracks[name->text];
      const bool victim = name->text == trace::kVictimTrack;
      need(victim || series_tracks.count(name->text) > 0,
           "is on unknown counter track '" + name->text + "'");
      need(get(args, victim ? "billed" : "avg", Kind::kNumber) != nullptr &&
               get(args, victim ? "true" : "max", Kind::kNumber) != nullptr,
           "lacks the values of counter track '" + name->text + "'");
      continue;
    }
    const json::Value* tid = get(e, "tid", Kind::kNumber);
    need(tid != nullptr && named_tids.count(tid->text) > 0,
         "is on a tid that no thread_name names");
    if (ph->text == "X") {
      ++c.spans;
      const json::Value* dur = get(e, "dur", Kind::kNumber);
      need(dur != nullptr && dur->text.front() != '-',
           "span has no non-negative dur");
      need(get(args, "cycles", Kind::kNumber) != nullptr,
           "span has no numeric args.cycles");
    } else {
      ++c.instants;
      const json::Value* scope = get(e, "s", Kind::kString);
      need(scope != nullptr && (scope->text == "t" || scope->text == "p" ||
                                scope->text == "g"),
           "instant scope is not t, p or g");
    }
  }
  if (!c.categories.empty() && untagged > 0)
    refuse(std::to_string(untagged) +
           " event(s) lack the cat the others carry");
  if (c.categories.size() > 1)
    refuse("events carry " + std::to_string(c.categories.size()) +
           " different cat tags");
  // Every ring event that survived exports as one span or one instant, plus
  // the terminator instant; counter samples are derived views on top.
  const std::uint64_t kept = c.spans + c.instants;
  if (kept == 0 || kept - 1 != recorded - dropped)
    refuse("spans + instants = " + std::to_string(kept) +
           ", but recorded - dropped + 1 = " +
           std::to_string(recorded - dropped + 1));
  return c;
}

int run_trace_summary(const InspectOptions& options, std::ostream& out) {
  const std::string& path = options.trace_path;
  const std::string text = read_file(path, "trace");
  json::Value doc;
  TraceCensus c;
  try {
    doc = json::parse_document(text);
    c = check_trace(doc);
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
  const json::Value& other = json::get_object(doc, "otherData");
  out << "trace " << path << ": schema \"" << trace::kTraceSchemaTag
      << "\", recorded " << json::get_u64(other, "recorded") << ", dropped "
      << json::get_u64(other, "dropped") << ", cpu_hz "
      << json::get_u64(other, "cpu_hz") << ", timer_hz "
      << json::get_u64(other, "timer_hz") << "\n";
  out << "  events: " << json::get_array(doc, "traceEvents").items.size()
      << " total -- " << c.spans << " spans (X), " << c.instants
      << " instants (i), " << c.counters << " counter samples (C)\n";
  out << "  event budget: spans + instants == recorded - dropped + 1\n";
  const auto census = [&](const char* title,
                          const std::map<std::string, std::uint64_t>& counts,
                          const char* unit) {
    if (!counts.empty()) out << "  " << title << ":\n";
    for (const auto& [name, n] : counts)
      out << "    " << std::left << std::setw(24) << name << std::right << " "
          << n << " " << unit << "\n";
  };
  census("counter tracks", c.counter_tracks, "sample(s)");
  census("categories", c.categories, "event(s)");
  return 0;
}

// ------------------------------------------------------------ jsonl mode

struct CellGap {
  report::CellKey key;
  double billed = 0.0;
  double true_s = 0.0;
  double overcharge = 0.0;
  double gap = 0.0;
};

/// The per-stat tokens are nested one-line objects; re-parse them through
/// the strict JSON reader to pull the mean.
double stat_mean(const JsonFields& fields, std::string_view key,
                 const std::string& where) {
  const auto token = json_token(fields, key);
  if (!token)
    throw std::runtime_error(where + ": cell record missing '" +
                             std::string(key) + "'");
  try {
    return json::get_f64(json::parse_document(*token), "mean");
  } catch (const std::exception& e) {
    throw std::runtime_error(where + ": bad '" + std::string(key) + "': " +
                             e.what());
  }
}

int run_top_cells(const InspectOptions& options, std::ostream& out) {
  // Every closed block's summary line, read as the scan passes it.
  std::vector<CellGap> cells;
  JsonlVisitor visitor;
  visitor.on_cell = [&](const CellBlock& b, std::uint64_t, std::string_view,
                        const JsonFields& f) {
    const std::string where =
        options.jsonl_path + " cell " + std::to_string(b.key.cell_index);
    CellGap c;
    c.key = b.key;
    c.billed = stat_mean(f, "billed_seconds", where);
    c.true_s = stat_mean(f, "true_seconds", where);
    c.overcharge = stat_mean(f, "overcharge", where);
    c.gap = c.billed - c.true_s;
    cells.push_back(std::move(c));
  };
  const FileScan scan = scan_jsonl_records(options.jsonl_path, visitor);
  if (!scan.clean)
    out << "note: " << scan.tail_error << " (partial tail ignored)\n";
  std::sort(cells.begin(), cells.end(), [](const CellGap& a, const CellGap& b) {
    if (a.gap != b.gap) return a.gap > b.gap;
    if (a.key.sweep != b.key.sweep) return a.key.sweep < b.key.sweep;
    return a.key.cell_index < b.key.cell_index;
  });
  const std::size_t n =
      std::min<std::size_t>(cells.size(), static_cast<std::size_t>(options.top));
  out << "top " << n << " of " << cells.size()
      << " cell(s) by billing gap (mean billed - true seconds):\n";
  out << "  " << std::right << std::setw(12) << "gap" << std::setw(12)
      << "billed" << std::setw(12) << "true" << std::setw(12) << "overchg"
      << "  cell\n";
  for (std::size_t i = 0; i < n; ++i) {
    const CellGap& c = cells[i];
    out << "  " << std::setw(12) << fmt6(c.gap) << std::setw(12)
        << fmt6(c.billed) << std::setw(12) << fmt6(c.true_s) << std::setw(12)
        << fmt6(c.overcharge) << "  " << c.key.sweep << "#"
        << c.key.cell_index << " attack=" << c.key.attack
        << " sched=" << c.key.scheduler << " hz=" << c.key.hz << "\n";
  }
  return 0;
}

int run_status_report(const InspectOptions& options, std::ostream& out) {
  // A shard that died before its first heartbeat (or whose status file was
  // cleaned up) looks exactly like a stale one to a monitor: report STALE
  // and exit 1 rather than erroring, so polling scripts need one code path.
  if (!std::filesystem::exists(options.status_path)) {
    out << "heartbeat: " << options.status_path
        << " does not exist -- STALE\n";
    return 1;
  }
  const StatusSnapshot s = read_status_file(options.status_path);
  out << "status: sweep " << s.sweep << ", cell " << s.cells_done << "/"
      << s.cells_total << ", elapsed " << fmt6(s.elapsed_seconds) << "s";
  if (s.eta_seconds) out << ", eta " << fmt6(*s.eta_seconds) << "s";
  out << "\n";
  if (!s.worker_busy_fraction.empty()) {
    out << "workers:";
    for (const double f : s.worker_busy_fraction)
      out << " " << fmt6(f * 100.0) << "%";
    out << "\n";
  }
  const double threshold =
      options.stale_after > 0.0 ? options.stale_after : kDefaultStaleAfterSeconds;
  const std::optional<double> age = status_file_age_seconds(options.status_path);
  if (!age) {
    // read_status_file succeeded moments ago, so only a racing delete
    // lands here; treat it like a stale heartbeat.
    out << "heartbeat: file vanished -- STALE\n";
    return 1;
  }
  const bool stale = heartbeat_stale(*age, threshold);
  out << "heartbeat: " << fmt6(*age) << "s old (stale after "
      << fmt6(threshold) << "s) -- " << (stale ? "STALE" : "alive") << "\n";
  return stale ? 1 : 0;
}

}  // namespace

int compare_metrics(std::ostream& out, const std::string& name_a,
                    const MetricsFile& a, const std::string& name_b,
                    const MetricsFile& b) {
  out << "comparing " << name_a << " (schema " << a.schema << ", "
      << a.shards << " shard(s)) vs " << name_b << " (schema " << b.schema
      << ", " << b.shards << " shard(s)); shard counts are not compared\n";
  std::uint64_t counter_deltas = 0, timing_deltas = 0, compared = 0;

  std::vector<const trace::SweepMetrics*> order;
  for (const trace::SweepMetrics& m : a.sweeps) order.push_back(&m);
  for (const trace::SweepMetrics& m : b.sweeps)
    if (find_sweep(a, m.sweep) == nullptr) order.push_back(&m);

  for (const trace::SweepMetrics* m : order) {
    const trace::SweepMetrics* ma = find_sweep(a, m->sweep);
    const trace::SweepMetrics* mb = find_sweep(b, m->sweep);
    out << "sweep " << m->sweep << ":\n";
    if (ma == nullptr || mb == nullptr) {
      out << "  only in " << (ma != nullptr ? name_a : name_b) << "\n";
      ++counter_deltas;
      continue;
    }
    const FlatMetrics fa = flatten_metrics(*ma);
    const FlatMetrics fb = flatten_metrics(*mb);
    compared += fa.counters.size();
    const std::uint64_t c = diff_class(out, "counter", fa.counters, fb.counters);
    if (c == 0)
      out << "  counters: identical (" << fa.counters.size() << " compared)\n";
    counter_deltas += c;
    timing_deltas += diff_class(out, "timing", fa.timings, fb.timings);
    render_series_comparison(out, *ma, *mb);
  }
  out << "summary: " << counter_deltas << " counter delta(s), "
      << timing_deltas << " timing delta(s) across " << order.size()
      << " sweep(s)";
  if (counter_deltas == 0) out << " -- counters identical";
  out << "\n";
  return counter_deltas == 0 ? 0 : 1;
}

InspectOptions parse_inspect_args(int argc, const char* const* argv) {
  InspectOptions o;
  bool top_set = false;
  const FlagTable table = {
      switch_flag("--help", o.help),
      switch_flag("-h", o.help),
      text_flag("--metrics", o.metrics_path),
      text_flag("--trace", o.trace_path),
      text_flag("--jsonl", o.jsonl_path),
      text_flag("--status-file", o.status_path),
      {"--compare", 2,
       [&o](std::string_view, FlagValues v) {
         o.compare.assign(v.begin(), v.end());
       }},
      {"--top", 1,
       [&](std::string_view src, FlagValues v) {
         o.top = int_value<std::uint64_t, 1>(src, v[0]);
         top_set = true;
       }},
      value_flag("--stale-after", o.stale_after, positive_real),
  };
  parse_flags(argc, argv, table, [](std::string_view arg) {
    throw UsageError("unexpected argument '" + std::string(arg) + "'");
  });
  if (o.help) return o;
  const int modes = (o.metrics_path.empty() ? 0 : 1) +
                    (o.trace_path.empty() ? 0 : 1) +
                    (o.jsonl_path.empty() ? 0 : 1) + (o.compare.empty() ? 0 : 1) +
                    (o.status_path.empty() ? 0 : 1);
  if (modes != 1)
    throw UsageError(modes == 0 ? "no mode selected"
                                : "more than one mode selected");
  if (top_set && o.jsonl_path.empty())
    throw UsageError("--top only applies to --jsonl");
  if (o.stale_after > 0.0 && o.status_path.empty())
    throw UsageError("--stale-after only applies to --status-file");
  return o;
}

int run_inspect(const InspectOptions& options, std::ostream& out) {
  if (options.help) {
    out << kUsage;
    return 0;
  }
  if (!options.metrics_path.empty()) {
    render_metrics_report(out, read_metrics_json(options.metrics_path));
    return 0;
  }
  if (!options.trace_path.empty()) return run_trace_summary(options, out);
  if (!options.jsonl_path.empty()) return run_top_cells(options, out);
  if (!options.status_path.empty()) return run_status_report(options, out);
  return compare_metrics(out, options.compare[0],
                         read_metrics_json(options.compare[0]),
                         options.compare[1],
                         read_metrics_json(options.compare[1]));
}

int inspect_main(int argc, const char* const* argv) {
  return run_cli("mtr_inspect", kUsage, 2, [&] {
    return run_inspect(parse_inspect_args(argc, argv), std::cout);
  });
}

}  // namespace mtr::dist
