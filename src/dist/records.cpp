#include "dist/records.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "dist/json.hpp"
#include "report/result_sink.hpp"

namespace mtr::dist {

bool tokenize_json_line(std::string_view line, JsonFields& out) {
  out.clear();
  if (line.empty() || line.front() != '{') return false;
  std::size_t i = 1;
  if (i < line.size() && line[i] == '}') return i + 1 == line.size();
  for (;;) {
    if (i >= line.size() || line[i] != '"') return false;
    const std::size_t key_end = json::skip_string(line, i);
    if (key_end == std::string_view::npos) return false;
    const std::string_view key = line.substr(i + 1, key_end - i - 2);
    i = key_end;
    if (i >= line.size() || line[i] != ':') return false;
    ++i;
    const std::size_t val_start = i;
    if (i < line.size() && line[i] == '"') {
      i = json::skip_string(line, i);
      if (i == std::string_view::npos) return false;
    } else if (i < line.size() && line[i] == '{') {
      // One level of nesting (the per-stat {...} objects), strings inside
      // respected.
      int depth = 1;
      ++i;
      while (i < line.size() && depth > 0) {
        if (line[i] == '"') {
          i = json::skip_string(line, i);
          if (i == std::string_view::npos) return false;
        } else {
          if (line[i] == '{') ++depth;
          if (line[i] == '}') --depth;
          ++i;
        }
      }
      if (depth != 0) return false;
    } else {
      while (i < line.size() && line[i] != ',' && line[i] != '}') ++i;
      if (i == val_start) return false;
    }
    out.push_back({key, line.substr(val_start, i - val_start)});
    if (i >= line.size()) return false;
    if (line[i] == '}') return i + 1 == line.size();
    if (line[i] != ',') return false;
    ++i;
  }
}

std::optional<std::string_view> json_token(const JsonFields& fields,
                                           std::string_view key) {
  for (auto it = fields.rbegin(); it != fields.rend(); ++it)
    if (it->key == key) return it->token;
  return std::nullopt;
}

bool parse_json_line(const std::string& line,
                     std::map<std::string, std::string>& out) {
  thread_local JsonFields fields;  // reused: no per-line vector growth
  const bool ok = tokenize_json_line(line, fields);
  out.clear();
  for (const JsonField& f : fields)
    out.insert_or_assign(std::string(f.key), std::string(f.token));
  return ok;
}

std::optional<std::string> json_string(const JsonFields& fields,
                                       std::string_view key) {
  const auto token = json_token(fields, key);
  if (!token || token->size() < 2 || token->front() != '"' ||
      token->back() != '"')
    return std::nullopt;
  std::string text;
  if (json::decode_string(token->substr(1, token->size() - 2), text))
    return std::nullopt;
  return text;
}

std::optional<std::uint64_t> json_u64(const JsonFields& fields,
                                      std::string_view key) {
  const auto token = json_token(fields, key);
  if (!token) return std::nullopt;
  return parse_u64(*token);
}

std::optional<double> json_double(const JsonFields& fields,
                                  std::string_view key) {
  const auto token = json_token(fields, key);
  if (!token) return std::nullopt;
  return parse_f64(*token);
}

std::optional<bool> json_bool(const JsonFields& fields, std::string_view key) {
  const auto token = json_token(fields, key);
  if (!token) return std::nullopt;
  if (*token == "true") return true;
  if (*token == "false") return false;
  return std::nullopt;
}

std::vector<std::string> cell_stat_keys() {
  std::vector<std::string> k;
  core::CellStats cell;
  cell.for_each_stat(
      [&](const char* name, const RunningStats&, auto) { k.emplace_back(name); });
  return k;
}

const std::vector<std::pair<std::string, std::string>>& cell_sketch_columns() {
  static const std::vector<std::pair<std::string, std::string>> cols = [] {
    std::vector<std::pair<std::string, std::string>> c;
    core::CellStats cell;
    cell.for_each_sketch([&](const char* name, const QuantileSketch&, auto) {
      std::string dist = name;  // "pop_<x>_dist" -> run column "pop_<x>_sketch"
      std::string run = dist.substr(0, dist.size() - 5) + "_sketch";
      c.emplace_back(std::move(dist), std::move(run));
    });
    return c;
  }();
  return cols;
}

namespace {

std::string where(const std::string& path, std::uint64_t line) {
  return path + ":" + std::to_string(line);
}

/// Uniform "(byte N)" suffix: every scanner diagnostic names the byte
/// offset where the offending data begins, so a failure report can be
/// checked with dd/truncate directly.
std::string at_byte(std::uint64_t offset) {
  return " (byte " + std::to_string(offset) + ")";
}

}  // namespace

void throw_schema_error(const std::string& path, std::uint64_t line,
                        std::uint64_t offset, const std::string& what,
                        std::uint64_t found, std::uint64_t reads) {
  throw SchemaError(where(path, line) + ": " + what + " schema version " +
                    std::to_string(found) + ", produced by " +
                    (found < reads ? "an older" : "a newer") +
                    " metertrust; this build reads only v" +
                    std::to_string(reads) + at_byte(offset));
}

namespace {

/// Reads the key columns of a tokenized JSONL record into `key`; returns
/// the name of the first missing or invalid one, nullptr when all parse.
const char* read_json_key(const JsonFields& f, report::CellKey& key) {
  for (const report::CellKeyColumn& col : report::kCellKeyColumns) {
    if (col.is_text()) {
      const std::optional<std::string> text = json_string(f, col.name);
      if (!text || !col.parse(key, *text)) return col.name;
    } else {
      const std::optional<std::string_view> token = json_token(f, col.name);
      if (!token || !col.parse(key, *token)) return col.name;
    }
  }
  return nullptr;
}

/// Reads a file line by line through one fixed buffer (grown only for a
/// line longer than it), so scanning holds no more than a line or two of
/// the file in memory.
class LineReader {
 public:
  explicit LineReader(const std::string& path) : in_(path, std::ios::binary) {
    if (!in_.is_open()) throw std::runtime_error("cannot open " + path);
  }

  /// The next line, without its newline, valid until the next call;
  /// `terminated` is false for a final line with no newline (a mid-write
  /// kill). False at end of file.
  bool next(std::string_view& line, bool& terminated) {
    for (;;) {
      const char* data = buf_.data();
      const void* nl = std::memchr(data + begin_, '\n', end_ - begin_);
      if (nl != nullptr) {
        const std::size_t at = static_cast<const char*>(nl) - data;
        line = std::string_view(data + begin_, at - begin_);
        begin_ = at + 1;
        terminated = true;
        return true;
      }
      if (eof_) {
        if (begin_ == end_) return false;
        line = std::string_view(data + begin_, end_ - begin_);
        begin_ = end_;
        terminated = false;
        return true;
      }
      if (begin_ > 0) {
        std::memmove(buf_.data(), data + begin_, end_ - begin_);
        end_ -= begin_;
        begin_ = 0;
      }
      if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
      in_.read(buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
      const std::size_t got = static_cast<std::size_t>(in_.gcount());
      end_ += got;
      if (got == 0) eof_ = true;
    }
  }

 private:
  std::ifstream in_;
  std::vector<char> buf_ = std::vector<char>(std::size_t{1} << 16);
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  bool eof_ = false;
};

/// Splits a CSV row into cell views. A row without quotes is split in
/// place; a quoted one goes through report::split_csv_line, whose strings
/// `unquoted` keeps alive for the views.
void split_row(std::string_view line, std::vector<std::string_view>& row,
               std::vector<std::string>& unquoted) {
  row.clear();
  if (line.find('"') != std::string_view::npos) {
    unquoted = report::split_csv_line(line);
    row.assign(unquoted.begin(), unquoted.end());
    return;
  }
  std::size_t from = 0;
  for (std::size_t comma; (comma = line.find(',', from)) != std::string_view::npos;
       from = comma + 1)
    row.push_back(line.substr(from, comma - from));
  row.push_back(line.substr(from));
}

}  // namespace

FileScan scan_jsonl(const std::string& path) {
  return scan_jsonl_records(path, JsonlVisitor{});
}

FileScan scan_jsonl_records(const std::string& path,
                            const JsonlVisitor& visitor) {
  LineReader in(path);
  FileScan scan;
  CellBlock open;
  bool has_open = false;
  std::uint64_t offset = 0;
  std::uint64_t line_no = 0;
  std::string_view line;
  bool terminated = false;
  JsonFields f;
  // `offset` is the start of the line being examined when stop() fires,
  // which is exactly where the unusable tail begins.
  const auto stop = [&](std::string why) {
    scan.clean = false;
    scan.tail_error = std::move(why) + at_byte(offset);
  };

  while (in.next(line, terminated)) {
    ++line_no;
    if (!terminated) {
      stop(where(path, line_no) + ": truncated final line");
      break;
    }
    const std::uint64_t line_end = offset + line.size() + 1;

    if (!tokenize_json_line(line, f)) {
      stop(where(path, line_no) + ": unparseable record");
      break;
    }
    const auto record = json_string(f, "record");
    const auto schema = json_u64(f, "schema");
    if (!record || !schema) {
      stop(where(path, line_no) + ": record missing or invalid field '" +
           (!record ? "record" : "schema") + "'");
      break;
    }
    if (*schema != report::kSchemaVersion)
      throw_schema_error(path, line_no, offset, "record", *schema,
                         report::kSchemaVersion);

    report::CellKey key;
    if (const char* bad = read_json_key(f, key)) {
      stop(where(path, line_no) + ": record missing or invalid field '" +
           bad + "'");
      break;
    }

    if (*record == "run") {
      const auto seed = json_u64(f, "seed");
      const auto seed_index = json_u64(f, "seed_index");
      if (!seed || !seed_index) {
        stop(where(path, line_no) + ": run record missing or invalid field '" +
             (!seed ? "seed" : "seed_index") + "'");
        break;
      }
      if (!has_open) {
        if (*seed_index != 0) {
          stop(where(path, line_no) + ": run records of cell " +
               std::to_string(key.cell_index) + " start mid-cell");
          break;
        }
        open = CellBlock{};
        open.first_line = line_no;
        open.begin_offset = offset;
        open.key = std::move(key);
        has_open = true;
      } else if (key != open.key) {
        stop(where(path, line_no) + ": cell " +
             std::to_string(open.key.cell_index) +
             " has run records but no summary");
        break;
      } else if (*seed_index != open.seeds.size()) {
        stop(where(path, line_no) + ": seed_index discontinuity in cell " +
             std::to_string(key.cell_index));
        break;
      }
      open.seeds.push_back(*seed);
      if (visitor.on_run) visitor.on_run(open, line_no, f);
    } else if (*record == "cell") {
      const auto n = json_u64(f, "seeds");
      if (!has_open || key != open.key) {
        stop(where(path, line_no) + ": cell summary for cell " +
             std::to_string(key.cell_index) + " without its run records");
        break;
      }
      if (!n || *n != open.seeds.size()) {
        stop(where(path, line_no) + ": cell " + std::to_string(key.cell_index) +
             " summary seed count disagrees with its run records");
        break;
      }
      if (visitor.on_cell) visitor.on_cell(open, line_no, line, f);
      open.closed = true;
      open.end_offset = line_end;
      scan.valid_bytes = line_end;
      scan.blocks.push_back(std::move(open));
      open = CellBlock{};
      has_open = false;
    } else {
      stop(where(path, line_no) + ": unknown record type '" + *record + "'");
      break;
    }
    offset = line_end;
  }

  if (scan.clean && has_open) {
    // The orphan runs begin right after the last complete cell.
    offset = scan.valid_bytes;
    stop(where(path, open.first_line) + ": incomplete cell " +
         std::to_string(open.key.cell_index) +
         " at end of file (runs without a summary)");
  }
  return scan;
}

FileScan scan_csv(const std::string& path) {
  LineReader in(path);
  FileScan scan;
  std::string_view line;
  bool terminated = false;
  if (!in.next(line, terminated)) return scan;  // empty file: nothing done yet
  if (!terminated) {
    scan.clean = false;
    scan.tail_error = where(path, 1) + ": truncated header row" + at_byte(0);
    return scan;
  }
  const std::vector<std::string> header = report::split_csv_line(line);
  if (header != report::run_schema_keys())
    throw SchemaError(where(path, 1) +
                      ": CSV header is not the schema v" +
                      std::to_string(report::kSchemaVersion) +
                      " layout, produced by an older metertrust; this build "
                      "reads only v" +
                      std::to_string(report::kSchemaVersion) + at_byte(0));
  const auto col = [&](const char* key) {
    return static_cast<std::size_t>(
        std::find(header.begin(), header.end(), key) - header.begin());
  };
  const std::size_t c_schema = col("schema"), c_seed = col("seed"),
                    c_seed_i = col("seed_index");
  std::array<std::size_t, report::kCellKeyColumns.size()> c_key{};
  for (std::size_t k = 0; k < c_key.size(); ++k)
    c_key[k] = col(report::kCellKeyColumns[k].name);

  std::uint64_t offset = line.size() + 1;
  std::uint64_t line_no = 1;
  scan.valid_bytes = offset;
  scan.header_bytes = offset;
  CellBlock open;
  bool has_open = false;
  std::vector<std::string_view> row;
  std::vector<std::string> unquoted;
  // As in scan_jsonl: `offset` is the start of the row under examination
  // when stop() fires — the first unusable byte.
  const auto stop = [&](std::string why) {
    scan.clean = false;
    scan.tail_error = std::move(why) + at_byte(offset);
  };

  while (in.next(line, terminated)) {
    ++line_no;
    if (!terminated) {
      stop(where(path, line_no) + ": truncated final row");
      break;
    }
    const std::uint64_t line_end = offset + line.size() + 1;
    split_row(line, row, unquoted);
    if (row.size() != header.size()) {
      stop(where(path, line_no) + ": malformed row (" +
           std::to_string(row.size()) + " of " +
           std::to_string(header.size()) + " columns)");
      break;
    }
    const auto num = [&](std::size_t c, const char* key) {
      const std::optional<std::uint64_t> v = parse_u64(row[c]);
      if (!v)
        stop(where(path, line_no) + ": field '" + key +
             "' has non-numeric value '" + std::string(row[c]) + "'");
      return v;
    };
    const auto schema = num(c_schema, "schema");
    if (!schema) break;
    if (*schema != report::kSchemaVersion)
      throw_schema_error(path, line_no, offset, "record", *schema,
                         report::kSchemaVersion);
    // Strict full-match parsing of every key column: a corrupt row must
    // stop the scan at a named field, not round-trip a mangled value into
    // resume/merge decisions.
    report::CellKey key;
    std::size_t bad = 0;
    while (bad < c_key.size() &&
           report::kCellKeyColumns[bad].parse(key, row[c_key[bad]]))
      ++bad;
    if (bad < c_key.size()) {
      const report::CellKeyColumn& column = report::kCellKeyColumns[bad];
      stop(where(path, line_no) + ": field '" + column.name + "' has non-" +
           (column.is_bool() ? "boolean" : "numeric") + " value '" +
           std::string(row[c_key[bad]]) + "'");
      break;
    }
    const auto seed = num(c_seed, "seed");
    if (!seed) break;
    const auto seed_index = num(c_seed_i, "seed_index");
    if (!seed_index) break;

    if (has_open && open.key.cell_index == key.cell_index) {
      if (key != open.key) {
        stop(where(path, line_no) + ": conflicting coordinates within cell " +
             std::to_string(key.cell_index));
        break;
      }
      if (*seed_index != open.seeds.size()) {
        stop(where(path, line_no) + ": seed_index discontinuity in cell " +
             std::to_string(key.cell_index));
        break;
      }
    } else {
      if (has_open) {
        // The next cell starts, which proves the previous one ended.
        open.closed = true;
        scan.valid_bytes = open.end_offset;
        scan.blocks.push_back(std::move(open));
      }
      open = CellBlock{};
      open.first_line = line_no;
      open.begin_offset = offset;
      open.key = std::move(key);
      has_open = true;
      if (*seed_index != 0) {
        stop(where(path, line_no) + ": rows of cell " +
             std::to_string(open.key.cell_index) + " start mid-cell");
        has_open = false;
        break;
      }
    }
    open.seeds.push_back(*seed);
    open.end_offset = line_end;
    offset = line_end;
  }

  // EOF cannot prove the final block complete; hand it over open and let
  // the caller decide against its expected seed set. The open block
  // survives an unclean scan too: its rows were all validated before the
  // stop, and a tear that cut into the NEXT cell's first row must not
  // discard the complete rows of the cell before it.
  if (has_open) scan.blocks.push_back(std::move(open));
  return scan;
}

}  // namespace mtr::dist
