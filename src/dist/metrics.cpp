#include "dist/metrics.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dist/json.hpp"
#include "dist/records.hpp"

namespace mtr::dist {
namespace {

using json::Value;

trace::TimeSeries parse_series(const Value& v, std::string_view name) {
  const std::uint64_t width = json::get_u64(v, "width");
  std::vector<trace::SeriesBucket> buckets;
  for (const Value& b : json::get_array(v, "buckets").items) {
    if (b.kind != Value::Kind::kArray || b.items.size() != 4)
      throw std::runtime_error("series '" + std::string(name) +
                               "' bucket is not a [count, min, max, sum] row");
    trace::SeriesBucket out;
    out.count = json::as_u64(b.items[0], "count");
    out.min = json::as_i64(b.items[1], "min");
    out.max = json::as_i64(b.items[2], "max");
    out.sum = json::as_i64(b.items[3], "sum");
    buckets.push_back(out);
  }
  if (buckets.size() > trace::TimeSeries::kCapacity)
    throw std::runtime_error("series '" + std::string(name) + "' carries " +
                             std::to_string(buckets.size()) +
                             " buckets but the capacity is " +
                             std::to_string(trace::TimeSeries::kCapacity));
  trace::TimeSeries s;
  s.load(width, std::move(buckets));
  return s;
}

QuantileSketch parse_sketch(const Value& v, std::string_view name) {
  QuantileSketch s;
  s.load_zero(json::get_u64(v, "zero"));
  s.load_bounds(json::get_f64(v, "min"), json::get_f64(v, "max"));
  const auto load = [&](const char* key, bool negative) {
    for (const Value& b : json::get_array(v, key).items) {
      if (b.kind != Value::Kind::kArray || b.items.size() != 2)
        throw std::runtime_error("sketch '" + std::string(name) + "' " + key +
                                 " bucket is not an [index, count] pair");
      const std::int64_t index = json::as_i64(b.items[0], "index");
      if (index < QuantileSketch::kMinIndex ||
          index > QuantileSketch::kMaxIndex)
        throw std::runtime_error("sketch '" + std::string(name) +
                                 "' bucket index " + std::to_string(index) +
                                 " is out of range");
      s.load_bucket(static_cast<std::int32_t>(index),
                    json::as_u64(b.items[1], "count"), negative);
    }
  };
  load("neg", true);
  load("pos", false);
  if (s.count() != json::get_u64(v, "count"))
    throw std::runtime_error("sketch '" + std::string(name) +
                             "' count does not match its buckets");
  return s;
}

trace::SweepMetrics parse_sweep(const Value& v) {
  trace::SweepMetrics s;
  s.sweep = json::get_string(v, "sweep");
  s.cells = json::get_u64(v, "cells");
  s.runs = json::get_u64(v, "runs");
  s.cell_wall_seconds = json::get_f64(v, "cell_wall_seconds");
  s.max_cell_seconds = json::get_f64(v, "max_cell_seconds");

  const Value& kernel = json::get_object(v, "kernel");
  s.kernel.for_each([&](const char* name, std::uint64_t& field) {
    field = json::get_u64(kernel, name);
  });

  for (const Value& ph : json::get_array(v, "phases").items) {
    if (ph.kind != Value::Kind::kObject)
      throw std::runtime_error("phase entry is not an object");
    s.phases.add(json::get_string(ph, "name"), json::get_u64(ph, "count"),
                 json::get_f64(ph, "seconds"));
  }

  const Value& pool = json::get_object(v, "pool");
  s.pool.threads = json::get_u64(pool, "threads");
  s.pool.wall_seconds = json::get_f64(pool, "wall_seconds");
  for (const Value& b : json::get_array(pool, "busy_seconds").items)
    s.pool.busy_seconds.push_back(json::as_f64(b, "busy_seconds"));

  const Value& series = json::get_object(v, "series");
  s.telemetry.for_each_series([&](const char* name, trace::TimeSeries& ts) {
    ts = parse_series(json::get_object(series, name), name);
  });
  const Value& sketches = json::get_object(v, "sketches");
  s.telemetry.for_each_sketch([&](const char* name, QuantileSketch& sk) {
    sk = parse_sketch(json::get_object(sketches, name), name);
  });
  return s;
}

}  // namespace

MetricsFile read_metrics_json(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot open metrics file");
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  try {
    const Value doc = json::parse_document(text);
    if (doc.kind != Value::Kind::kObject)
      throw std::runtime_error("document is not a JSON object");

    MetricsFile f;
    f.schema = json::get_u64(doc, "schema");
    if (f.schema != trace::kMetricsSchemaVersion) {
      // The writer stamps the version first; point at it.
      const std::size_t at = std::min(text.find("\"schema\""), text.size());
      const auto line = 1 + std::count(text.begin(), text.begin() + at, '\n');
      throw_schema_error(path, static_cast<std::uint64_t>(line), at, "metrics",
                         f.schema, trace::kMetricsSchemaVersion);
    }
    if (json::get_string(doc, "record") != "metrics")
      throw std::runtime_error("not a metrics file (record tag mismatch)");
    f.shards = json::get_u64(doc, "shards");
    for (const Value& sweep : json::get_array(doc, "sweeps").items)
      f.sweeps.push_back(parse_sweep(sweep));
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
      into->merge(s);
    }
  }
  return out;
}

}  // namespace mtr::dist
