#include "dist/metrics.hpp"

#include <algorithm>
#include <stdexcept>

#include "dist/json.hpp"
#include "dist/records.hpp"
#include "dist/status.hpp"

namespace mtr::dist {
namespace {

using json::Value;

[[noreturn]] void refuse(const std::string& message) {
  throw std::runtime_error(message);
}

/// Reads one fixed section through the writer's own name table (`visit`
/// hands every (name, field) pair of a for_each to its callback). The keys
/// must be exactly those names in that order: the table is the schema, so
/// a missing, extra or reordered key means a foreign or damaged file.
template <typename Visit, typename Parse>
void parse_section(const Value& parent, const char* key, Visit&& visit,
                   Parse&& parse) {
  const Value& obj = json::get_object(parent, key);
  std::size_t i = 0;
  visit([&](const char* name, auto& field) {
    if (i == obj.fields.size())
      refuse(std::string(key) + " is missing '" + name + "'");
    if (obj.fields[i].first != name)
      refuse(std::string(key) + " has '" + obj.fields[i].first + "' where '" +
             name + "' belongs");
    parse(name, obj.fields[i++].second, field);
  });
  if (i != obj.fields.size())
    refuse(std::string(key) + " has an extra key '" + obj.fields[i].first +
           "'");
}

trace::TimeSeries parse_series(const Value& v, std::string_view name) {
  const std::string where = "series '" + std::string(name) + "'";
  const std::uint64_t width = json::get_u64(v, "width");
  const std::uint64_t steps = width / trace::TimeSeries::kBaseWidth;
  if (width % trace::TimeSeries::kBaseWidth != 0 || steps == 0 ||
      (steps & (steps - 1)) != 0)
    refuse(where + " width " + std::to_string(width) +
           " is not kBaseWidth * 2^k");
  std::vector<trace::SeriesBucket> buckets;
  for (const Value& b : json::get_array(v, "buckets").items) {
    if (b.kind != Value::Kind::kArray || b.items.size() != 4)
      refuse(where + " bucket is not a [count, min, max, sum] row");
    trace::SeriesBucket out;
    out.count = json::as_u64(b.items[0], "count");
    out.min = json::as_i64(b.items[1], "min");
    out.max = json::as_i64(b.items[2], "max");
    out.sum = json::as_i64(b.items[3], "sum");
    const __int128 n = out.count;
    if (out.count > 0 && !(out.min <= out.max && n * out.min <= out.sum &&
                           out.sum <= n * out.max))
      refuse(where + " bucket " + std::to_string(buckets.size()) +
             " breaks min <= max or count*min <= sum <= count*max");
    buckets.push_back(out);
  }
  if (buckets.size() > trace::TimeSeries::kCapacity)
    refuse(where + " carries " + std::to_string(buckets.size()) +
           " buckets but the capacity is " +
           std::to_string(trace::TimeSeries::kCapacity));
  trace::TimeSeries s;
  s.load(width, std::move(buckets));
  return s;
}

QuantileSketch parse_sketch(const Value& v, std::string_view name) {
  const std::string where = "sketch '" + std::string(name) + "'";
  QuantileSketch s;
  s.load_zero(json::get_u64(v, "zero"));
  s.load_bounds(json::get_f64(v, "min"), json::get_f64(v, "max"));
  const auto load = [&](const char* key, bool negative) {
    for (const Value& b : json::get_array(v, key).items) {
      if (b.kind != Value::Kind::kArray || b.items.size() != 2)
        refuse(where + " " + key + " bucket is not an [index, count] pair");
      const std::int64_t index = json::as_i64(b.items[0], "index");
      if (index < QuantileSketch::kMinIndex ||
          index > QuantileSketch::kMaxIndex)
        refuse(where + " bucket index " + std::to_string(index) +
               " is out of range");
      const std::uint64_t n = json::as_u64(b.items[1], "count");
      if (n < 1) refuse(where + " " + key + " bucket holds no values");
      s.load_bucket(static_cast<std::int32_t>(index), n, negative);
    }
  };
  load("neg", true);
  load("pos", false);
  if (const char* why = s.load_error(json::get_u64(v, "count")))
    refuse(where + " " + why);
  return s;
}

trace::SweepMetrics parse_sweep(const Value& v) {
  trace::SweepMetrics s;
  s.sweep = json::get_string(v, "sweep");
  s.cells = json::get_u64(v, "cells");
  s.runs = json::get_u64(v, "runs");
  s.cell_wall_seconds = json::get_f64(v, "cell_wall_seconds");
  s.max_cell_seconds = json::get_f64(v, "max_cell_seconds");

  parse_section(
      v, "kernel", [&](auto f) { s.kernel.for_each(f); },
      [](const char* name, const Value& x, std::uint64_t& field) {
        field = json::as_u64(x, name);
      });

  for (const Value& ph : json::get_array(v, "phases").items) {
    if (ph.kind != Value::Kind::kObject) refuse("phase entry is not an object");
    s.phases.add(json::get_string(ph, "name"), json::get_u64(ph, "count"),
                 json::get_f64(ph, "seconds"));
  }

  const Value& pool = json::get_object(v, "pool");
  s.pool.threads = json::get_u64(pool, "threads");
  s.pool.wall_seconds = json::get_f64(pool, "wall_seconds");
  for (const Value& b : json::get_array(pool, "busy_seconds").items)
    s.pool.busy_seconds.push_back(json::as_f64(b, "busy_seconds"));

  parse_section(
      v, "series", [&](auto f) { s.telemetry.for_each_series(f); },
      [](const char* name, const Value& x, trace::TimeSeries& ts) {
        ts = parse_series(x, name);
      });
  parse_section(
      v, "sketches", [&](auto f) { s.telemetry.for_each_sketch(f); },
      [](const char* name, const Value& x, QuantileSketch& sk) {
        sk = parse_sketch(x, name);
      });

  // Relations every writer keeps by construction: per-cell wall times sum
  // to cell_wall_seconds, each cell runs at least once, leaps cover landed
  // ticks, and the pool has one busy slot per thread.
  if (s.runs < s.cells)
    refuse("runs " + std::to_string(s.runs) + " < cells " +
           std::to_string(s.cells));
  if (s.max_cell_seconds > s.cell_wall_seconds)
    refuse("max_cell_seconds exceeds cell_wall_seconds");
  if (s.kernel.ticks_coalesced > s.kernel.timer_ticks)
    refuse("kernel ticks_coalesced exceeds timer_ticks");
  if (s.pool.busy_seconds.size() > s.pool.threads)
    refuse("pool has " + std::to_string(s.pool.busy_seconds.size()) +
           " busy slots but " + std::to_string(s.pool.threads) + " threads");
  return s;
}

}  // namespace

MetricsFile read_metrics_json(const std::string& path) {
  const std::string text = read_file(path, "metrics");

  try {
    const Value doc = json::parse_document(text);
    if (doc.kind != Value::Kind::kObject)
      refuse("document is not a JSON object");

    MetricsFile f;
    f.path = path;
    f.schema = json::get_u64(doc, "schema");
    if (f.schema != trace::kMetricsSchemaVersion) {
      // The writer stamps the version first; point at it.
      const std::size_t at = std::min(text.find("\"schema\""), text.size());
      const auto line = 1 + std::count(text.begin(), text.begin() + at, '\n');
      throw_schema_error(path, static_cast<std::uint64_t>(line), at, "metrics",
                         f.schema, trace::kMetricsSchemaVersion);
    }
    if (json::get_string(doc, "record") != "metrics")
      refuse("not a metrics file (record tag mismatch)");
    f.shards = json::get_u64(doc, "shards");
    for (const Value& v : json::get_array(doc, "sweeps").items) {
      const std::string name =
          v.kind == Value::Kind::kObject ? json::get_string(v, "sweep") : "";
      try {
        f.sweeps.push_back(parse_sweep(v));
      } catch (const std::runtime_error& e) {
        refuse("sweep '" + name + "': " + e.what());
      }
      for (std::size_t i = 0; i + 1 < f.sweeps.size(); ++i)
        if (f.sweeps[i].sweep == name)
          refuse("sweep '" + name + "' appears twice");
    }
    return f;
  } catch (const SchemaError&) {
    throw;  // already names the path
  } catch (const std::runtime_error& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

MetricsFile fold_metrics(const std::vector<MetricsFile>& files) {
  MetricsFile out;
  out.schema = trace::kMetricsSchemaVersion;
  for (const MetricsFile& f : files) {
    out.shards += f.shards;
    for (const trace::SweepMetrics& s : f.sweeps) {
      trace::SweepMetrics* into = nullptr;
      for (trace::SweepMetrics& existing : out.sweeps)
        if (existing.sweep == s.sweep) {
          into = &existing;
          break;
        }
      if (into == nullptr) {
        trace::SweepMetrics fresh;
        fresh.sweep = s.sweep;
        out.sweeps.push_back(std::move(fresh));
        into = &out.sweeps.back();
      }
      try {
        into->merge(s);
      } catch (const std::overflow_error& e) {
        throw std::runtime_error(f.path + ": sweep '" + s.sweep + "': " +
                                 e.what());
      }
    }
  }
  return out;
}

}  // namespace mtr::dist
