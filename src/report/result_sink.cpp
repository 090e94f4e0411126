#include "report/result_sink.hpp"

#include <cstdio>
#include <fstream>

#include "common/ensure.hpp"
#include "common/format.hpp"
#include "common/parse.hpp"
#include "crypto/digest.hpp"
#include "workloads/workloads.hpp"

namespace mtr::report {
namespace {

std::string fmt_f64(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::unique_ptr<std::ostream> open_file(const std::string& path, OpenMode mode) {
  auto file = std::make_unique<std::ofstream>(
      path, mode == OpenMode::kAppend ? std::ios::out | std::ios::app
                                      : std::ios::out | std::ios::trunc);
  MTR_ENSURE_MSG(file->is_open(), "cannot open result file " << path);
  return file;
}

/// Joined "object (tag)" list; rows keep one column however many there are.
std::string join_violations(const std::vector<std::string>& violations) {
  std::string out;
  for (const std::string& v : violations) {
    if (!out.empty()) out += "; ";
    out += v;
  }
  return out;
}

SinkFlushHook& sink_flush_hook() {
  static SinkFlushHook hook;
  return hook;
}

}  // namespace

void set_sink_flush_hook(SinkFlushHook hook) {
  sink_flush_hook() = std::move(hook);
}

std::vector<Field> flatten_run(const std::string& sweep,
                               const core::CellStats& cell,
                               std::size_t seed_i) {
  const core::ExperimentResult& r = cell.runs.at(seed_i);
  std::vector<Field> f;
  f.reserve(48);
  const auto u64 = [](std::uint64_t v) { return FieldValue{v}; };
  const auto i64 = [](std::int64_t v) { return FieldValue{v}; };

  const CellKey key = cell_key(sweep, cell.cell_index, cell);
  const auto key_columns = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i)
      f.push_back({kCellKeyColumns[i].name, kCellKeyColumns[i].value(key)});
  };

  f.push_back({"schema", u64(kSchemaVersion)});
  key_columns(0, kRunHeadColumns);
  f.push_back({"seed", u64(cell.seeds.at(seed_i))});
  f.push_back({"seed_index", u64(seed_i)});

  // ExperimentResult, every field, declaration order.
  f.push_back({"workload", std::string(workloads::short_name(r.kind))});
  f.push_back({"attack_name", r.attack_name});
  f.push_back({"victim_pid", i64(r.victim_pid.v)});
  f.push_back({"victim_tgid", i64(r.victim_tgid.v)});
  f.push_back({"victim_exited", r.victim_exited});
  f.push_back({"wall_seconds", r.wall_seconds});
  f.push_back({"billed_utime_ticks", u64(r.billed_ticks.utime.v)});
  f.push_back({"billed_stime_ticks", u64(r.billed_ticks.stime.v)});
  f.push_back({"billed_user_seconds", r.billed_user_seconds});
  f.push_back({"billed_system_seconds", r.billed_system_seconds});
  f.push_back({"billed_seconds", r.billed_seconds});
  f.push_back({"true_user_cycles", u64(r.true_cycles.user.v)});
  f.push_back({"true_system_cycles", u64(r.true_cycles.system.v)});
  f.push_back({"true_seconds", r.true_seconds});
  f.push_back({"tsc_user_cycles", u64(r.tsc_cycles.user.v)});
  f.push_back({"tsc_system_cycles", u64(r.tsc_cycles.system.v)});
  f.push_back({"tsc_seconds", r.tsc_seconds});
  f.push_back({"pais_user_cycles", u64(r.pais_cycles.user.v)});
  f.push_back({"pais_system_cycles", u64(r.pais_cycles.system.v)});
  f.push_back({"pais_seconds", r.pais_seconds});
  f.push_back({"overcharge", r.overcharge});
  f.push_back({"source_ok", r.source_verdict.ok});
  f.push_back({"source_violations", join_violations(r.source_verdict.violations)});
  f.push_back({"witness", crypto::to_hex(r.witness)});
  f.push_back({"witness_steps", u64(r.witness_steps)});
  f.push_back({"minor_faults", u64(r.minor_faults)});
  f.push_back({"major_faults", u64(r.major_faults)});
  f.push_back({"debug_exceptions", u64(r.debug_exceptions)});
  f.push_back({"voluntary_switches", u64(r.voluntary_switches)});
  f.push_back({"involuntary_switches", u64(r.involuntary_switches)});
  f.push_back({"nic_packets", u64(r.nic_packets)});
  f.push_back({"has_attacker", r.has_attacker});
  f.push_back({"attacker_utime_ticks", u64(r.attacker_ticks.utime.v)});
  f.push_back({"attacker_stime_ticks", u64(r.attacker_ticks.stime.v)});
  f.push_back({"attacker_billed_seconds", r.attacker_billed_seconds});
  f.push_back({"attacker_true_user_cycles", u64(r.attacker_true_cycles.user.v)});
  f.push_back({"attacker_true_system_cycles", u64(r.attacker_true_cycles.system.v)});
  f.push_back({"attacker_true_seconds", r.attacker_true_seconds});

  // Population coordinates and per-tenant distributions.
  key_columns(kRunHeadColumns, kCellKeyColumns.size());
  f.push_back({"pop_tenants", u64(r.pop_tenants)});
  f.push_back({"pop_attackers", u64(r.pop_attackers)});
  f.push_back({"pop_flagged_attackers", u64(r.pop_flagged_attackers)});
  f.push_back({"pop_flagged_honest", u64(r.pop_flagged_honest)});
  f.push_back({"pop_billing_error_mean", r.pop_billing_error_mean});
  f.push_back({"pop_billing_error_p99", r.pop_billing_error_p99});
  f.push_back({"pop_attacker_advantage_mean", r.pop_attacker_advantage_mean});
  f.push_back({"pop_detection_tpr", r.pop_detection_tpr});
  f.push_back({"pop_detection_fpr", r.pop_detection_fpr});
  f.push_back({"pop_billing_error_sketch", encode_sketch(r.pop_billing_error)});
  f.push_back({"pop_billed_sketch", encode_sketch(r.pop_billed_seconds)});
  f.push_back({"pop_true_sketch", encode_sketch(r.pop_true_seconds)});
  f.push_back({"pop_advantage_sketch", encode_sketch(r.pop_attacker_advantage)});
  return f;
}

std::vector<std::string> run_schema_keys() {
  core::CellStats cell;
  cell.seeds = {0};
  cell.runs.emplace_back();
  std::vector<std::string> keys;
  for (Field& f : flatten_run("", cell, 0)) keys.push_back(std::move(f.key));
  return keys;
}

std::string encode_sketch(const QuantileSketch& s) {
  std::string out = std::to_string(s.count());
  out += ';';
  out += std::to_string(s.zero_count());
  out += ';';
  out += fmt_f64(s.min());
  out += ';';
  out += fmt_f64(s.max());
  out += ';';
  bool first = true;
  for (const auto& [index, n] : s.positive()) {
    if (!first) out += ' ';
    first = false;
    out += std::to_string(index) + ':' + std::to_string(n);
  }
  out += ';';
  first = true;
  for (const auto& [index, n] : s.negative()) {
    if (!first) out += ' ';
    first = false;
    out += std::to_string(index) + ':' + std::to_string(n);
  }
  return out;
}

std::optional<QuantileSketch> decode_sketch(std::string_view token) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= token.size(); ++i) {
    if (i == token.size() || token[i] == ';') {
      parts.push_back(token.substr(start, i - start));
      start = i + 1;
    }
  }
  if (parts.size() != 6) return std::nullopt;
  const auto count = parse_number<std::uint64_t>(parts[0]);
  const auto zero = parse_number<std::uint64_t>(parts[1]);
  const auto lo = parse_f64(parts[2]);
  const auto hi = parse_f64(parts[3]);
  if (!count || !zero || !lo || !hi) return std::nullopt;

  QuantileSketch s;
  const auto load_buckets = [&s](std::string_view list, bool negative) {
    if (list.empty()) return true;
    std::size_t from = 0;
    for (std::size_t i = 0; i <= list.size(); ++i) {
      if (i != list.size() && list[i] != ' ') continue;
      const std::string_view pair = list.substr(from, i - from);
      from = i + 1;
      const std::size_t colon = pair.find(':');
      if (colon == std::string_view::npos) return false;
      const auto index = parse_number<std::int32_t>(pair.substr(0, colon));
      const auto n = parse_number<std::uint64_t>(pair.substr(colon + 1));
      if (!index || !n || *n == 0) return false;
      if (*index < QuantileSketch::kMinIndex || *index > QuantileSketch::kMaxIndex)
        return false;
      s.load_bucket(*index, *n, negative);
    }
    return true;
  };
  if (!load_buckets(parts[4], false)) return std::nullopt;
  if (!load_buckets(parts[5], true)) return std::nullopt;
  s.load_zero(*zero);
  s.load_bounds(*lo, *hi);
  if (s.count() != *count) return std::nullopt;  // token-internal mismatch
  return s;
}

std::vector<std::string> split_csv_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (quoted) {
      if (ch == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        cur += '"';
        ++i;
      } else if (ch == '"') {
        quoted = false;
      } else {
        cur += ch;
      }
    } else if (ch == '"') {
      quoted = true;
    } else if (ch == ',') {
      cells.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  cells.push_back(cur);
  return cells;
}

void write_csv_header(std::ostream& os) {
  const std::vector<std::string> keys = run_schema_keys();
  for (std::size_t i = 0; i < keys.size(); ++i)
    os << (i ? "," : "") << csv_escape(keys[i]);
  os << '\n';
}

std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

std::string format_csv(const FieldValue& v) {
  return std::visit(
      [](const auto& x) -> std::string {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, bool>) return x ? "true" : "false";
        else if constexpr (std::is_same_v<T, double>) return fmt_f64(x);
        else if constexpr (std::is_same_v<T, std::string>) return csv_escape(x);
        else return std::to_string(x);
      },
      v);
}

std::string format_json(const FieldValue& v) {
  return std::visit(
      [](const auto& x) -> std::string {
        using T = std::decay_t<decltype(x)>;
        if constexpr (std::is_same_v<T, bool>) return x ? "true" : "false";
        else if constexpr (std::is_same_v<T, double>) return fmt_f64(x);
        else if constexpr (std::is_same_v<T, std::string>)
          return json_quote(x);
        else return std::to_string(x);
      },
      v);
}

CsvSink::CsvSink(const std::string& path, OpenMode mode)
    : owned_(open_file(path, mode)), os_(owned_.get()) {
  // Appending to a non-empty file: the header is already on disk.
  header_written_ = mode == OpenMode::kAppend && os_->tellp() > 0;
}

CsvSink::CsvSink(std::ostream& os) : os_(&os) {}

void CsvSink::write_cell(const std::string& sweep, const core::CellStats& cell) {
  if (sink_flush_hook()) sink_flush_hook()("csv");
  if (!header_written_) {
    write_csv_header(*os_);
    header_written_ = true;
  }
  if (buf_.capacity() == 0) buf_.reserve(4096);
  buf_.clear();  // keeps capacity: no steady-state reallocation
  for (std::size_t seed_i = 0; seed_i < cell.runs.size(); ++seed_i) {
    const std::vector<Field> fields = flatten_run(sweep, cell, seed_i);
    for (std::size_t i = 0; i < fields.size(); ++i) {
      if (i) buf_ += ',';
      buf_ += format_csv(fields[i].value);
    }
    buf_ += '\n';
  }
  *os_ << buf_;
  os_->flush();
  // ofstream swallows I/O errors into badbit; surface them (ENOSPC etc.)
  // instead of exiting 0 with a truncated artifact.
  MTR_ENSURE_MSG(os_->good(), "CSV sink write failed (disk full or closed?)");
}

JsonlSink::JsonlSink(const std::string& path, OpenMode mode)
    : owned_(open_file(path, mode)), os_(owned_.get()) {}

JsonlSink::JsonlSink(std::ostream& os) : os_(&os) {}

CellSummary summarize_cell(const std::string& sweep, const core::CellStats& cell) {
  CellSummary s;
  s.key = cell_key(sweep, cell.cell_index, cell);
  s.workload = cell.runs.empty() ? "" : workloads::short_name(cell.runs.front().kind);
  s.seeds = cell.runs.size();
  s.source_ok = cell.all_source_ok();
  cell.for_each_stat([&](const char* key, const RunningStats& stat, auto) {
    s.stats.push_back({key, stat});
  });
  cell.for_each_sketch([&](const char* key, const QuantileSketch& sketch, auto) {
    s.sketches.emplace_back(key, sketch);
  });
  return s;
}

void write_cell_record(std::ostream& os, const CellSummary& s) {
  os << "{\"record\":\"cell\",\"schema\":" << kSchemaVersion;
  for (const CellKeyColumn& col : kCellKeyColumns)
    os << ",\"" << col.name << "\":" << format_json(col.value(s.key));
  os << ",\"workload\":" << json_quote(s.workload) << ",\"seeds\":" << s.seeds
     << ",\"source_ok\":" << (s.source_ok ? "true" : "false");
  for (const CellStatSummary& st : s.stats) {
    os << ',' << json_quote(st.key) << ":{\"n\":" << st.stats.count()
       << ",\"mean\":" << fmt_f64(st.stats.mean())
       << ",\"stddev\":" << fmt_f64(st.stats.stddev())
       << ",\"min\":" << fmt_f64(st.stats.min())
       << ",\"max\":" << fmt_f64(st.stats.max()) << '}';
  }
  // Distribution aggregates: quantile summaries of the merged sketches.
  // Derived (not stored) values only — the full sketch lives in the run
  // records, which is what lets mtr_merge recompute this line byte-exactly.
  for (const auto& [key, sk] : s.sketches) {
    os << ',' << json_quote(key) << ":{\"n\":" << sk.count()
       << ",\"min\":" << fmt_f64(sk.min()) << ",\"max\":" << fmt_f64(sk.max())
       << ",\"p50\":" << fmt_f64(sk.quantile(0.5))
       << ",\"p90\":" << fmt_f64(sk.quantile(0.9))
       << ",\"p99\":" << fmt_f64(sk.quantile(0.99)) << '}';
  }
  os << "}\n";
}

void JsonlSink::write_cell(const std::string& sweep, const core::CellStats& cell) {
  if (sink_flush_hook()) sink_flush_hook()("jsonl");
  if (buf_.capacity() == 0) buf_.reserve(8192);
  buf_.clear();  // keeps capacity: no steady-state reallocation
  for (std::size_t seed_i = 0; seed_i < cell.runs.size(); ++seed_i) {
    buf_ += "{\"record\":\"run\"";
    for (const Field& f : flatten_run(sweep, cell, seed_i)) {
      buf_ += ',';
      buf_ += json_quote(f.key);
      buf_ += ':';
      buf_ += format_json(f.value);
    }
    buf_ += "}\n";
  }
  *os_ << buf_;

  // Per-cell aggregate summary — the numbers a figure plots directly.
  // Emitted through the shared write_cell_record so merged shard output
  // stays byte-identical to this line.
  write_cell_record(*os_, summarize_cell(sweep, cell));
  os_->flush();
  MTR_ENSURE_MSG(os_->good(), "JSONL sink write failed (disk full or closed?)");
}

void MultiSink::add(std::unique_ptr<ResultSink> sink) {
  MTR_ENSURE(sink != nullptr);
  sinks_.push_back(std::move(sink));
}

void MultiSink::write_cell(const std::string& sweep, const core::CellStats& cell) {
  for (const auto& sink : sinks_) sink->write_cell(sweep, cell);
}

}  // namespace mtr::report
