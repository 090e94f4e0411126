#include "report/result_sink.hpp"

#include <fstream>

#include "common/ensure.hpp"
#include "common/format.hpp"
#include "common/parse.hpp"
#include "crypto/digest.hpp"
#include "workloads/workloads.hpp"

namespace mtr::report {
namespace {

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

/// A run column whose text is computed straight into the record buffer.
/// Neither a sketch encoding nor a hex digest ever needs CSV or JSON
/// escaping (encode_sketch's contract; hex is [0-9a-f]).
struct SketchText {
  const QuantileSketch& sketch;
};
struct HexText {
  const crypto::Digest32& digest;
};

/// The canonical record for run `seed_i` of `cell`, whose key is `key`, as
/// f(name, value) calls in emission order: schema, the cell key's head
/// columns, grid seed, every ExperimentResult field, then the key's
/// population columns and the per-tenant distributions. Values are bool,
/// std::uint64_t, std::int64_t, double, text (std::string or
/// std::string_view), SketchText or HexText. flatten_run and both sinks
/// walk this one list.
template <typename F>
void for_each_run_field(const CellKey& key, const core::CellStats& cell,
                        std::size_t seed_i, F&& f) {
  const core::ExperimentResult& r = cell.runs.at(seed_i);
  using U = std::uint64_t;
  using I = std::int64_t;
  const auto key_columns = [&](std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i)
      std::visit([&](auto m) { f(kCellKeyColumns[i].name, key.*m); },
                 kCellKeyColumns[i].member);
  };

  f("schema", U{kSchemaVersion});
  key_columns(0, kRunHeadColumns);
  f("seed", U{cell.seeds.at(seed_i)});
  f("seed_index", U{seed_i});

  // ExperimentResult, every field, declaration order.
  f("workload", std::string_view(workloads::short_name(r.kind)));
  f("attack_name", r.attack_name);
  f("victim_pid", I{r.victim_pid.v});
  f("victim_tgid", I{r.victim_tgid.v});
  f("victim_exited", r.victim_exited);
  f("wall_seconds", r.wall_seconds);
  f("billed_utime_ticks", U{r.billed_ticks.utime.v});
  f("billed_stime_ticks", U{r.billed_ticks.stime.v});
  f("billed_user_seconds", r.billed_user_seconds);
  f("billed_system_seconds", r.billed_system_seconds);
  f("billed_seconds", r.billed_seconds);
  f("true_user_cycles", U{r.true_cycles.user.v});
  f("true_system_cycles", U{r.true_cycles.system.v});
  f("true_seconds", r.true_seconds);
  f("tsc_user_cycles", U{r.tsc_cycles.user.v});
  f("tsc_system_cycles", U{r.tsc_cycles.system.v});
  f("tsc_seconds", r.tsc_seconds);
  f("pais_user_cycles", U{r.pais_cycles.user.v});
  f("pais_system_cycles", U{r.pais_cycles.system.v});
  f("pais_seconds", r.pais_seconds);
  f("overcharge", r.overcharge);
  f("source_ok", r.source_verdict.ok);
  f("source_violations", join_violations(r.source_verdict.violations));
  f("witness", HexText{r.witness});
  f("witness_steps", U{r.witness_steps});
  f("minor_faults", U{r.minor_faults});
  f("major_faults", U{r.major_faults});
  f("debug_exceptions", U{r.debug_exceptions});
  f("voluntary_switches", U{r.voluntary_switches});
  f("involuntary_switches", U{r.involuntary_switches});
  f("nic_packets", U{r.nic_packets});
  f("has_attacker", r.has_attacker);
  f("attacker_utime_ticks", U{r.attacker_ticks.utime.v});
  f("attacker_stime_ticks", U{r.attacker_ticks.stime.v});
  f("attacker_billed_seconds", r.attacker_billed_seconds);
  f("attacker_true_user_cycles", U{r.attacker_true_cycles.user.v});
  f("attacker_true_system_cycles", U{r.attacker_true_cycles.system.v});
  f("attacker_true_seconds", r.attacker_true_seconds);

  // Population coordinates and per-tenant distributions.
  key_columns(kRunHeadColumns, kCellKeyColumns.size());
  f("pop_tenants", U{r.pop_tenants});
  f("pop_attackers", U{r.pop_attackers});
  f("pop_flagged_attackers", U{r.pop_flagged_attackers});
  f("pop_flagged_honest", U{r.pop_flagged_honest});
  f("pop_billing_error_mean", r.pop_billing_error_mean);
  f("pop_billing_error_p99", r.pop_billing_error_p99);
  f("pop_attacker_advantage_mean", r.pop_attacker_advantage_mean);
  f("pop_detection_tpr", r.pop_detection_tpr);
  f("pop_detection_fpr", r.pop_detection_fpr);
  f("pop_billing_error_sketch", SketchText{r.pop_billing_error});
  f("pop_billed_sketch", SketchText{r.pop_billed_seconds});
  f("pop_true_sketch", SketchText{r.pop_true_seconds});
  f("pop_advantage_sketch", SketchText{r.pop_attacker_advantage});
}

void append_sketch(std::string& out, const QuantileSketch& s) {
  append_number(out, s.count());
  out += ';';
  append_number(out, s.zero_count());
  out += ';';
  append_number(out, s.min());
  out += ';';
  append_number(out, s.max());
  for (const auto* buckets : {&s.positive(), &s.negative()}) {
    out += ';';
    bool first = true;
    for (const auto& [index, n] : *buckets) {
      if (!first) out += ' ';
      first = false;
      append_number(out, static_cast<std::int64_t>(index));
      out += ':';
      append_number(out, n);
    }
  }
}

void append_hex(std::string& out, const crypto::Digest32& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (const std::uint8_t b : d.bytes) {
    out += kHex[b >> 4];
    out += kHex[b & 0xf];
  }
}

/// Appends a computed column's text.
void append_text(std::string& out, const SketchText& v) {
  append_sketch(out, v.sketch);
}
void append_text(std::string& out, const HexText& v) {
  append_hex(out, v.digest);
}

template <typename T>
constexpr bool kComputed =
    std::is_same_v<T, SketchText> || std::is_same_v<T, HexText>;
template <typename T>
constexpr bool kText = std::is_convertible_v<T, std::string_view>;

/// csv_escape, appended to `out`.
void append_csv_escaped(std::string& out, std::string_view s) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) {
    out += s;
    return;
  }
  out += '"';
  for (const char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
}

/// Appends one for_each_run_field value in its CSV spelling.
template <typename T>
void append_csv_value(std::string& out, const T& v) {
  if constexpr (kComputed<T>) append_text(out, v);
  else if constexpr (kText<T>) append_csv_escaped(out, v);
  else if constexpr (std::is_same_v<T, bool>) out += v ? "true" : "false";
  else append_number(out, v);
}

/// Appends one for_each_run_field value in its JSON spelling; booleans
/// and numbers are spelled as in CSV.
template <typename T>
void append_json_value(std::string& out, const T& v) {
  if constexpr (kComputed<T>) {
    out += '"';
    append_text(out, v);
    out += '"';
  } else if constexpr (kText<T>) {
    append_json_quoted(out, v);
  } else {
    append_csv_value(out, v);
  }
}

}  // namespace

std::vector<Field> flatten_run(const std::string& sweep,
                               const core::CellStats& cell,
                               std::size_t seed_i) {
  std::vector<Field> fields;
  fields.reserve(64);
  const CellKey key = cell_key(sweep, cell.cell_index, cell);
  for_each_run_field(key, cell, seed_i, [&](std::string_view name, const auto& v) {
    using T = std::decay_t<decltype(v)>;
    if constexpr (kComputed<T>) {
      std::string text;
      append_text(text, v);
      fields.push_back({name, std::move(text)});
    } else if constexpr (kText<T>) {
      fields.push_back({name, std::string(v)});
    } else {
      fields.push_back({name, v});
    }
  });
  return fields;
}

std::vector<std::string> run_schema_keys() {
  core::CellStats cell;
  cell.seeds = {0};
  cell.runs.emplace_back();
  std::vector<std::string> keys;
  for (const Field& f : flatten_run("", cell, 0)) keys.emplace_back(f.key);
  return keys;
}

std::string encode_sketch(const QuantileSketch& s) {
  std::string out;
  append_sketch(out, s);
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
  if (s.load_error(*count) != nullptr) return std::nullopt;
  return s;
}

std::vector<std::string> split_csv_line(std::string_view line) {
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
  std::string row;
  for (const std::string& key : run_schema_keys()) {
    if (!row.empty()) row += ',';
    append_csv_escaped(row, key);
  }
  row += '\n';
  os << row;
}

std::string csv_escape(const std::string& s) {
  std::string out;
  append_csv_escaped(out, s);
  return out;
}

void append_csv(std::string& out, const FieldValue& v) {
  std::visit([&out](const auto& x) { append_csv_value(out, x); }, v);
}

void append_json(std::string& out, const FieldValue& v) {
  std::visit([&out](const auto& x) { append_json_value(out, x); }, v);
}

CsvSink::CsvSink(const std::string& path, OpenMode mode)
    : owned_(open_file(path, mode)), os_(owned_.get()) {
  // Appending to a non-empty file: the header is already on disk.
  header_written_ = mode == OpenMode::kAppend && os_->tellp() > 0;
}

CsvSink::CsvSink(std::ostream& os) : os_(&os) {}

void CsvSink::write_cell(const std::string& sweep, const core::CellStats& cell) {
  if (!header_written_) {
    write_csv_header(*os_);
    header_written_ = true;
  }
  if (buf_.capacity() == 0) buf_.reserve(4096);
  buf_.clear();  // keeps capacity: no steady-state reallocation
  const CellKey key = cell_key(sweep, cell.cell_index, cell);
  for (std::size_t seed_i = 0; seed_i < cell.runs.size(); ++seed_i) {
    bool first = true;
    for_each_run_field(key, cell, seed_i, [&](std::string_view, const auto& v) {
      if (!first) buf_ += ',';
      first = false;
      append_csv_value(buf_, v);
    });
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

void append_cell_record(std::string& out, const CellSummary& s) {
  const auto key = [&out](std::string_view k) {
    out += ',';
    append_json_quoted(out, k);
    out += ':';
  };
  out += "{\"record\":\"cell\",\"schema\":";
  append_number(out, kSchemaVersion);
  for (const CellKeyColumn& col : kCellKeyColumns) {
    key(col.name);
    append_json(out, col.value(s.key));
  }
  key("workload");
  append_json_quoted(out, s.workload);
  key("seeds");
  append_number(out, s.seeds);
  key("source_ok");
  out += s.source_ok ? "true" : "false";
  for (const CellStatSummary& st : s.stats) {
    key(st.key);
    out += "{\"n\":";
    append_number(out, static_cast<std::uint64_t>(st.stats.count()));
    out += ",\"mean\":";
    append_number(out, st.stats.mean());
    out += ",\"stddev\":";
    append_number(out, st.stats.stddev());
    out += ",\"min\":";
    append_number(out, st.stats.min());
    out += ",\"max\":";
    append_number(out, st.stats.max());
    out += '}';
  }
  // Distribution aggregates: quantile summaries of the merged sketches.
  // Derived (not stored) values only — the full sketch lives in the run
  // records, which is what lets mtr_merge recompute this line byte-exactly.
  for (const auto& [name, sk] : s.sketches) {
    key(name);
    out += "{\"n\":";
    append_number(out, sk.count());
    out += ",\"min\":";
    append_number(out, sk.min());
    out += ",\"max\":";
    append_number(out, sk.max());
    out += ",\"p50\":";
    append_number(out, sk.quantile(0.5));
    out += ",\"p90\":";
    append_number(out, sk.quantile(0.9));
    out += ",\"p99\":";
    append_number(out, sk.quantile(0.99));
    out += '}';
  }
  out += "}\n";
}

void JsonlSink::write_cell(const std::string& sweep, const core::CellStats& cell) {
  if (buf_.capacity() == 0) buf_.reserve(8192);
  buf_.clear();  // keeps capacity: no steady-state reallocation
  const CellKey key = cell_key(sweep, cell.cell_index, cell);
  for (std::size_t seed_i = 0; seed_i < cell.runs.size(); ++seed_i) {
    buf_ += "{\"record\":\"run\"";
    for_each_run_field(key, cell, seed_i, [&](std::string_view name, const auto& v) {
      buf_ += ',';
      append_json_quoted(buf_, name);
      buf_ += ':';
      append_json_value(buf_, v);
    });
    buf_ += "}\n";
  }
  // Per-cell aggregate summary — the numbers a figure plots directly.
  // Emitted through the shared append_cell_record so merged shard output
  // stays byte-identical to this line.
  append_cell_record(buf_, summarize_cell(sweep, cell));
  *os_ << buf_;
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
