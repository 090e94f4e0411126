#include "report/result_sink.hpp"

#include <algorithm>
#include <bit>
#include <fstream>
#include <stdexcept>

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

/// The head of run `seed_i`'s record, as f(name, value) calls: schema, the
/// cell key's head columns, the grid seed and its index.
template <typename F>
void for_each_prefix_field(const CellKey& key, const core::CellStats& cell,
                           std::size_t seed_i, F&& f) {
  f("schema", std::uint64_t{kSchemaVersion});
  for (std::size_t i = 0; i < kRunHeadColumns; ++i)
    std::visit([&](auto m) { f(kCellKeyColumns[i].name, key.*m); },
               kCellKeyColumns[i].member);
  f("seed", std::uint64_t{cell.seeds.at(seed_i)});
  f("seed_index", std::uint64_t{seed_i});
}

/// The rest of a run's record, its body: every ExperimentResult field, then
/// the key's population columns and the per-tenant distributions, as
/// f(name, value...) calls with one value per result in `r` (one result
/// encodes a body, two compare bodies). Values are bool, std::uint64_t,
/// std::int64_t, double, text (std::string or std::string_view),
/// SketchText or HexText.
template <typename F, typename... R>
void for_each_body_field(const CellKey& key, F&& f, const R&... r) {
  using U = std::uint64_t;
  using I = std::int64_t;
  f("workload", std::string_view(workloads::short_name(r.kind))...);
  f("attack_name", r.attack_name...);
  f("victim_pid", I{r.victim_pid.v}...);
  f("victim_tgid", I{r.victim_tgid.v}...);
  f("victim_exited", r.victim_exited...);
  f("wall_seconds", r.wall_seconds...);
  f("billed_utime_ticks", U{r.billed_ticks.utime.v}...);
  f("billed_stime_ticks", U{r.billed_ticks.stime.v}...);
  f("billed_user_seconds", r.billed_user_seconds...);
  f("billed_system_seconds", r.billed_system_seconds...);
  f("billed_seconds", r.billed_seconds...);
  f("true_user_cycles", U{r.true_cycles.user.v}...);
  f("true_system_cycles", U{r.true_cycles.system.v}...);
  f("true_seconds", r.true_seconds...);
  f("tsc_user_cycles", U{r.tsc_cycles.user.v}...);
  f("tsc_system_cycles", U{r.tsc_cycles.system.v}...);
  f("tsc_seconds", r.tsc_seconds...);
  f("pais_user_cycles", U{r.pais_cycles.user.v}...);
  f("pais_system_cycles", U{r.pais_cycles.system.v}...);
  f("pais_seconds", r.pais_seconds...);
  f("overcharge", r.overcharge...);
  f("source_ok", r.source_verdict.ok...);
  f("source_violations", join_violations(r.source_verdict.violations)...);
  f("witness", HexText{r.witness}...);
  f("witness_steps", U{r.witness_steps}...);
  f("minor_faults", U{r.minor_faults}...);
  f("major_faults", U{r.major_faults}...);
  f("debug_exceptions", U{r.debug_exceptions}...);
  f("voluntary_switches", U{r.voluntary_switches}...);
  f("involuntary_switches", U{r.involuntary_switches}...);
  f("nic_packets", U{r.nic_packets}...);
  f("has_attacker", r.has_attacker...);
  f("attacker_utime_ticks", U{r.attacker_ticks.utime.v}...);
  f("attacker_stime_ticks", U{r.attacker_ticks.stime.v}...);
  f("attacker_billed_seconds", r.attacker_billed_seconds...);
  f("attacker_true_user_cycles", U{r.attacker_true_cycles.user.v}...);
  f("attacker_true_system_cycles", U{r.attacker_true_cycles.system.v}...);
  f("attacker_true_seconds", r.attacker_true_seconds...);

  // Population coordinates (the key's, so one value per result) and
  // per-tenant distributions.
  for (std::size_t i = kRunHeadColumns; i < kCellKeyColumns.size(); ++i)
    std::visit(
        [&](auto m) { f(kCellKeyColumns[i].name, (static_cast<void>(r), key.*m)...); },
        kCellKeyColumns[i].member);
  f("pop_tenants", U{r.pop_tenants}...);
  f("pop_attackers", U{r.pop_attackers}...);
  f("pop_flagged_attackers", U{r.pop_flagged_attackers}...);
  f("pop_flagged_honest", U{r.pop_flagged_honest}...);
  f("pop_billing_error_mean", r.pop_billing_error_mean...);
  f("pop_billing_error_p99", r.pop_billing_error_p99...);
  f("pop_attacker_advantage_mean", r.pop_attacker_advantage_mean...);
  f("pop_detection_tpr", r.pop_detection_tpr...);
  f("pop_detection_fpr", r.pop_detection_fpr...);
  f("pop_billing_error_sketch", SketchText{r.pop_billing_error}...);
  f("pop_billed_sketch", SketchText{r.pop_billed_seconds}...);
  f("pop_true_sketch", SketchText{r.pop_true_seconds}...);
  f("pop_advantage_sketch", SketchText{r.pop_attacker_advantage}...);
}

/// One aggregate of a cell summary, as f(name, value) calls.
template <typename F>
void for_each_aggregate_field(const RunningStats& s, F&& f) {
  f("n", static_cast<std::uint64_t>(s.count()));
  f("mean", s.mean());
  f("stddev", s.stddev());
  f("min", s.min());
  f("max", s.max());
}

/// One distribution aggregate of a cell summary: derived (not stored)
/// values only. The full sketch lives in the run records, which is what
/// lets mtr_merge recompute the summary byte-exactly.
template <typename F>
void for_each_aggregate_field(const QuantileSketch& s, F&& f) {
  f("n", s.count());
  f("min", s.min());
  f("max", s.max());
  f("p50", s.quantile(0.5));
  f("p90", s.quantile(0.9));
  f("p99", s.quantile(0.99));
}

/// A cell summary line after "record", as f(name, value) calls: schema,
/// every key column, the workload, the seed count, the source verdict, then
/// the aggregates (RunningStats) and distribution aggregates
/// (QuantileSketch).
template <typename F>
void for_each_cell_field(const CellSummary& s, F&& f) {
  f("schema", std::uint64_t{kSchemaVersion});
  for (const CellKeyColumn& col : kCellKeyColumns)
    std::visit([&](auto m) { f(col.name, s.key.*m); }, col.member);
  f("workload", std::string_view(s.workload));
  f("seeds", std::uint64_t{s.seeds});
  f("source_ok", s.source_ok);
  for (const CellStatSummary& st : s.stats) f(st.key, st.stats);
  for (const auto& [name, sketch] : s.sketches) f(name, sketch);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Whether two body values surely encode to the same bytes: doubles
/// compare by bit pattern (0 and -0 are spelled apart), sketches by what
/// append_sketch writes.
template <typename T>
bool same_value(const T& a, const T& b) {
  if constexpr (std::is_same_v<T, double>) {
    return same_bits(a, b);
  } else if constexpr (std::is_same_v<T, SketchText>) {
    const QuantileSketch& x = a.sketch;
    const QuantileSketch& y = b.sketch;
    return x.count() == y.count() && x.zero_count() == y.zero_count() &&
           same_bits(x.min(), y.min()) && same_bits(x.max(), y.max()) &&
           x.positive() == y.positive() && x.negative() == y.negative();
  } else if constexpr (std::is_same_v<T, HexText>) {
    return a.digest == b.digest;
  } else {
    return a == b;
  }
}

/// True when results `a` and `b` of one cell have equal bodies, value for
/// value, and so encode to equal body bytes.
bool same_body(const CellKey& key, const core::ExperimentResult& a,
               const core::ExperimentResult& b) {
  bool same = true;
  for_each_body_field(
      key,
      [&same](std::string_view, const auto& x, const auto& y) {
        same = same && same_value(x, y);
      },
      a, b);
  return same;
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

/// Appends a computed column's text.
void append_text(std::string& out, const SketchText& v) {
  append_sketch(out, v.sketch);
}
void append_text(std::string& out, const HexText& v) {
  crypto::append_hex(out, v.digest);
}

template <typename T>
constexpr bool kComputed =
    std::is_same_v<T, SketchText> || std::is_same_v<T, HexText>;
template <typename T>
constexpr bool kText = std::is_convertible_v<T, std::string_view>;

/// Appends field `name` with `v` in its JSON spelling, after a comma
/// unless it opens an object.
template <typename T>
void append_json_field(std::string& out, std::string_view name, const T& v) {
  if (out.back() != '{') out += ',';
  append_json_quoted(out, name);
  out += ':';
  if constexpr (std::is_same_v<T, RunningStats> || std::is_same_v<T, QuantileSketch>) {
    out += '{';
    for_each_aggregate_field(v, [&out](std::string_view n, const auto& x) {
      append_json_field(out, n, x);
    });
    out += '}';
  } else if constexpr (kComputed<T>) {
    out += '"';
    append_text(out, v);
    out += '"';
  } else if constexpr (kText<T>) {
    append_json_quoted(out, v);
  } else if constexpr (std::is_same_v<T, bool>) {
    out += v ? "true" : "false";
  } else {
    append_number(out, v);
  }
}

/// Appends `cell`'s run records, one line per replicate: encode_cell
/// without the summary line, which has no CSV row. A run whose body equals
/// the previous run's, value for value, copies its bytes.
void append_run_lines(std::string& out, const std::string& sweep,
                      const core::CellStats& cell) {
  const CellKey key = cell_key(sweep, cell.cell_index, cell);
  const auto emit = [&out](std::string_view name, const auto& v) {
    append_json_field(out, name, v);
  };
  // Where `out` holds the body of the run encoded last.
  std::size_t body_at = 0;
  std::size_t body_size = 0;
  for (std::size_t seed_i = 0; seed_i < cell.runs.size(); ++seed_i) {
    out += "{\"record\":\"run\"";
    for_each_prefix_field(key, cell, seed_i, emit);
    const core::ExperimentResult& r = cell.runs[seed_i];
    if (seed_i > 0 && same_body(key, cell.runs[seed_i - 1], r)) {
      out.append(out, body_at, body_size);
    } else {
      body_at = out.size();
      for_each_body_field(key, emit, r);
      body_size = out.size() - body_at;
    }
    out += "}\n";
  }
}

/// The names a field visitor gives, in order: `visit(f)` calls f(name, ...).
template <typename Visit>
std::vector<std::string> names(Visit&& visit) {
  std::vector<std::string> keys;
  visit([&keys](std::string_view name, const auto&) { keys.emplace_back(name); });
  return keys;
}

/// The layout of `keys`, the record's first `head` of them its head.
RecordLayout layout_of(std::string opening, std::vector<std::string> keys,
                       std::size_t head = 0) {
  RecordLayout l{std::move(opening), std::move(keys), {}, head};
  for (const std::string& key : l.keys) {
    std::string mark = l.marks.empty() && l.opening.ends_with('{') ? "" : ",";
    append_json_quoted(mark, key);
    mark += ':';
    l.marks.push_back(std::move(mark));
  }
  return l;
}

/// Appends a token's CSV cell: a string decoded and CSV-escaped, any other
/// token verbatim. False when the string does not decode.
bool append_cell(std::string& out, std::string_view token, std::string& text) {
  if (token.front() != '"') {
    out += token;
    return true;
  }
  // Without a backslash the decode is the identity, and without a comma
  // or a quote the CSV escape is too: most strings are copied.
  const std::string_view body = token.substr(1, token.size() - 2);
  if (std::none_of(body.begin(), body.end(), [](char c) {
        return c == '\\' || c == ',' || c == '"' || c == '\n';
      })) {
    out += body;
    return true;
  }
  text.clear();
  if (decode_json_string(body, text) != nullptr) return false;
  append_csv_escaped(out, text);
  return true;
}

}  // namespace

std::size_t RecordLayout::index(std::string_view key) const {
  const auto at = std::find(keys.begin(), keys.end(), key);
  MTR_ENSURE_MSG(at != keys.end(), "the writer writes no record key " << key);
  return static_cast<std::size_t>(at - keys.begin());
}

const RecordLayout& run_layout() {
  static const RecordLayout l = [] {
    core::CellStats cell;
    cell.seeds = {0};
    cell.runs.emplace_back();
    const CellKey key;
    const auto head = [&](auto f) { for_each_prefix_field(key, cell, 0, f); };
    return layout_of("{\"record\":\"run\"", names([&](auto f) {
                       head(f);
                       for_each_body_field(key, f, cell.runs[0]);
                     }),
                     names(head).size());
  }();
  return l;
}

const RecordLayout& cell_layout() {
  static const RecordLayout l = layout_of("{\"record\":\"cell\"", names([](auto f) {
    for_each_cell_field(summarize_cell("", core::CellStats{}), f);
  }));
  return l;
}

const RecordLayout& stat_layout() {
  static const RecordLayout l =
      layout_of("{", names([](auto f) { for_each_aggregate_field(RunningStats{}, f); }));
  return l;
}

RecordWalker::RecordWalker(const RecordLayout& layout)
    : layout_(&layout), tokens_(layout.keys.size()) {}

bool RecordWalker::start(std::string_view line) {
  line_ = line;
  next_ = 0;
  at_ = line.starts_with(layout_->opening) ? layout_->opening.size() : 0;
  return at_ > 0;
}

bool RecordWalker::read(std::size_t end) {
  for (; next_ < end; ++next_) {
    const std::string& mark = layout_->marks[next_];
    if (!rest().starts_with(mark)) return false;
    const std::size_t to = skip_json_value(line_, at_ + mark.size());
    if (to == std::string_view::npos) return false;
    tokens_[next_] = line_.substr(at_ + mark.size(), to - at_ - mark.size());
    at_ = to;
  }
  return end < layout_->keys.size() || rest() == "}";
}

std::string RecordWalker::error() const {
  const std::vector<std::string>& keys = layout_->keys;
  if (at_ == 0) return "does not open with " + layout_->opening;
  const std::string column = " at column " + std::to_string(at_);
  std::string_view rest = this->rest();
  if (next_ < keys.size() && rest.starts_with(layout_->marks[next_]))
    return "has a malformed '" + keys[next_] + "' value" + column;
  if (rest.starts_with(',')) rest.remove_prefix(1);
  const std::size_t key_end =
      rest.starts_with('"') ? skip_json_string(rest, 0) : std::string_view::npos;
  std::string found = rest.empty() || rest == "}" ? "ends" : "has unexpected text";
  if (key_end != std::string_view::npos)
    found = "has '" + std::string(rest.substr(1, key_end - 2)) + "'";
  if (next_ < keys.size())
    return found + column + " where the writer puts '" + keys[next_] + "'";
  return found + column + " after its last key '" + keys.back() + "'";
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
  // Only the spelling encode_sketch writes: "01", "2.0040", "-0", and
  // unsorted or repeated bucket indices all decode to a sketch that
  // re-encodes differently.
  if (encode_sketch(s) != token) return std::nullopt;
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
  for (const std::string& key : run_layout().keys) {
    if (!row.empty()) row += ',';
    append_csv_escaped(row, key);
  }
  row += '\n';
  os << row;
}

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

CsvSink::CsvSink(const std::string& path, OpenMode mode)
    : owned_(open_file(path, mode)), os_(owned_.get()) {
  // Appending to a non-empty file: the header is already on disk.
  header_written_ = mode == OpenMode::kAppend && os_->tellp() > 0;
}

CsvSink::CsvSink(std::ostream& os) : os_(&os) {}

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
  out += "{\"record\":\"cell\"";
  for_each_cell_field(s, [&out](std::string_view name, const auto& v) {
    append_json_field(out, name, v);
  });
  out += "}\n";
}

void encode_cell(std::string& out, const std::string& sweep,
                 const core::CellStats& cell) {
  append_run_lines(out, sweep, cell);
  // Per-cell aggregate summary — the numbers a figure plots directly.
  // Emitted through the shared append_cell_record so merged shard output
  // stays byte-identical to this line.
  append_cell_record(out, summarize_cell(sweep, cell));
}

void append_csv_rows(std::string& out, std::string_view lines,
                     std::string_view path, std::uint64_t first_line) {
  const RecordLayout& layout = run_layout();
  RecordWalker run(layout);
  std::string text;            // a decoded string
  std::string_view last_body;  // the last run line's body bytes
  std::string csv_body;        // and their cells, newline included
  const auto fail = [&](const std::string& why) {
    throw std::runtime_error(std::string(path) + ":" +
                             std::to_string(first_line) +
                             ": record has no CSV row: " + why);
  };
  const auto cells = [&](std::string& row, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      if (i > 0) row += ',';
      if (!append_cell(row, run.token(i), text))
        fail("its '" + layout.keys[i] + "' string does not decode");
    }
  };
  for (std::size_t from = 0; from < lines.size(); ++first_line) {
    const std::size_t end = std::min(lines.find('\n', from), lines.size());
    const std::string_view line = lines.substr(from, end - from);
    from = end + 1;
    if (line.starts_with(cell_layout().opening)) continue;
    if (!run.start(line))
      fail("it is neither a run record nor a cell summary");
    if (!run.read(layout.head)) fail("the run record " + run.error());
    cells(out, 0, layout.head);
    const std::string_view body = run.rest();
    if (body != last_body) {
      // Equal body bytes render to equal cells, so only a new body is read.
      if (!run.read_all()) fail("the run record " + run.error());
      csv_body.clear();
      cells(csv_body, layout.head, layout.keys.size());
      csv_body += '\n';
      last_body = body;
    }
    out += csv_body;
  }
}

void CsvSink::write_cell(const std::string& sweep, const core::CellStats& cell) {
  lines_.clear();  // keeps capacity: no steady-state reallocation
  append_run_lines(lines_, sweep, cell);
  write_lines(lines_);
}

void CsvSink::write_lines(std::string_view lines) {
  buf_.clear();
  append_csv_rows(buf_, lines, "encoded cell", 1);
  if (!header_written_) {
    write_csv_header(*os_);
    header_written_ = true;
  }
  *os_ << buf_;
  os_->flush();
  // ofstream swallows I/O errors into badbit; surface them (ENOSPC etc.)
  // instead of exiting 0 with a truncated artifact.
  MTR_ENSURE_MSG(os_->good(), "CSV sink write failed (disk full or closed?)");
}

void JsonlSink::write_cell(const std::string& sweep, const core::CellStats& cell) {
  buf_.clear();
  encode_cell(buf_, sweep, cell);
  write_lines(buf_);
}

void JsonlSink::write_lines(std::string_view lines) {
  *os_ << lines;
  os_->flush();
  MTR_ENSURE_MSG(os_->good(), "JSONL sink write failed (disk full or closed?)");
}

}  // namespace mtr::report
