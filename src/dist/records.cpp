#include "dist/records.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "common/format.hpp"
#include "report/result_sink.hpp"

namespace mtr::dist {

bool parse_json_line(const std::string& line,
                     std::map<std::string, std::string>& out) {
  constexpr std::size_t npos = std::string::npos;
  out.clear();
  if (!line.starts_with('{')) return false;
  if (line.size() > 1 && line[1] == '}') return line.size() == 2;
  for (std::size_t i = 1;;) {
    if (i >= line.size() || line[i] != '"') return false;
    const std::size_t key_end = skip_json_string(line, i);
    if (key_end == npos || key_end >= line.size() || line[key_end] != ':')
      return false;
    const std::size_t end = skip_json_value(line, key_end + 1);
    if (end == npos) return false;
    out.insert_or_assign(line.substr(i + 1, key_end - i - 2),
                         line.substr(key_end + 1, end - key_end - 1));
    if (end == line.size() || line[end] != ',') return end + 1 == line.size();
    i = end + 1;
  }
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

/// Where each key column's token sits in `layout`, in kCellKeyColumns order.
std::array<std::size_t, report::kCellKeyColumns.size()> key_tokens(
    const report::RecordLayout& layout) {
  std::array<std::size_t, report::kCellKeyColumns.size()> at{};
  for (std::size_t c = 0; c < at.size(); ++c)
    at[c] = layout.index(report::kCellKeyColumns[c].name);
  return at;
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

}  // namespace

FileScan scan_jsonl(const std::string& path) {
  return scan_jsonl_records(path, JsonlVisitor{});
}

FileScan scan_jsonl_records(const std::string& path,
                            const JsonlVisitor& visitor) {
  using report::kCellKeyColumns;
  const report::RecordLayout& run_layout = report::run_layout();
  const report::RecordLayout& cell_layout = report::cell_layout();
  static const auto run_keys = key_tokens(run_layout);
  static const auto cell_keys = key_tokens(cell_layout);
  static const std::size_t seed_at = run_layout.index("seed");
  static const std::size_t seed_index_at = run_layout.index("seed_index");
  static const std::size_t seeds_at = cell_layout.index("seeds");
  LineReader in(path);
  FileScan scan;
  CellBlock open;
  bool has_open = false;
  std::uint64_t offset = 0;
  std::uint64_t line_no = 0;
  std::string_view line;
  bool terminated = false;
  report::RecordWalker run(run_layout);
  report::RecordWalker cell(cell_layout);
  std::string text;       // a decoded key string
  std::string last_body;  // the open block's last run body

  // Reads key columns [0, end) of `w`'s record into `key`, a text column's
  // string decoded; the name of the first that does not parse, or nullptr.
  const auto read_key = [&text](const report::RecordWalker& w, const auto& at,
                                std::size_t end,
                                report::CellKey& key) -> const char* {
    for (std::size_t c = 0; c < end; ++c) {
      std::string_view token = w.token(at[c]);
      if (kCellKeyColumns[c].is_text()) {
        text.clear();
        if (token.front() != '"' ||
            decode_json_string(token.substr(1, token.size() - 2), text))
          return kCellKeyColumns[c].name;
        token = text;
      }
      if (!kCellKeyColumns[c].parse(key, token)) return kCellKeyColumns[c].name;
    }
    return nullptr;
  };
  const auto invalid = [](const char* field) {
    return std::string("record missing or invalid field '") + field + "'";
  };
  // Adds `line` to the scan; why it cannot be, or "".
  const auto read = [&](std::uint64_t line_end) -> std::string {
    // The kind and the schema stamp open every record, whatever its
    // version; only a record of this version is held to its layout.
    const bool is_run = !line.starts_with(cell_layout.opening);
    report::RecordWalker& w = is_run ? run : cell;
    if (!w.start(line)) return "record is neither a run record nor a cell summary";
    const std::string kind = is_run ? "run record " : "cell summary ";
    if (!w.read(1)) return kind + w.error();
    const std::optional<std::uint64_t> schema = parse_u64(w.token(0));
    if (!schema) return invalid("schema");
    if (*schema != report::kSchemaVersion)
      throw_schema_error(path, line_no, offset, "record", *schema,
                         report::kSchemaVersion);

    // A run whose body repeats holds the open block's population columns.
    report::CellKey key = has_open ? open.key : report::CellKey{};
    if (!is_run) {
      if (!cell.read_all()) return kind + cell.error();
      if (const char* bad = read_key(cell, cell_keys, cell_keys.size(), key))
        return invalid(bad);
      if (!has_open || key != open.key)
        return "cell summary for cell " + std::to_string(key.cell_index) +
               " without its run records";
      const auto n = parse_u64(cell.token(seeds_at));
      if (!n || *n != open.seeds.size())
        return "cell " + std::to_string(key.cell_index) +
               " summary seed count disagrees with its run records";
      if (visitor.on_cell) visitor.on_cell(open, line_no, cell);
      open.end_offset = line_end;
      scan.valid_bytes = line_end;
      scan.blocks.push_back(std::move(open));
      has_open = false;
      return {};
    }

    if (!run.read(run_layout.head)) return kind + run.error();
    // A body that repeats the open block's last one byte for byte holds the
    // same tokens, so only a new body is walked and read.
    const std::string_view body = run.rest();
    const bool repeats = has_open && body == last_body;
    if (!repeats && !run.read_all()) return kind + run.error();
    if (const char* bad = read_key(
            run, run_keys, repeats ? report::kRunHeadColumns : run_keys.size(), key))
      return invalid(bad);
    const auto seed = parse_u64(run.token(seed_at));
    const auto seed_index = parse_u64(run.token(seed_index_at));
    if (!seed || !seed_index)
      return "run " + invalid(!seed ? "seed" : "seed_index");
    if (!has_open) {
      if (*seed_index != 0)
        return "run records of cell " + std::to_string(key.cell_index) +
               " start mid-cell";
      open = CellBlock{};
      open.first_line = line_no;
      open.begin_offset = offset;
      open.key = std::move(key);
      has_open = true;
    } else if (key != open.key) {
      return "cell " + std::to_string(open.key.cell_index) +
             " has run records but no summary";
    } else if (*seed_index != open.seeds.size()) {
      return "seed_index discontinuity in cell " + std::to_string(key.cell_index);
    }
    if (!repeats) last_body = body;
    open.seeds.push_back(*seed);
    if (visitor.on_run) visitor.on_run(open, line_no, run, repeats);
    return {};
  };

  while (in.next(line, terminated)) {
    ++line_no;
    const std::uint64_t line_end = offset + line.size() + 1;
    const std::string why = terminated ? read(line_end) : "truncated final line";
    if (!why.empty()) {
      // `offset` is the start of the refused line: where the unusable tail
      // begins.
      scan.clean = false;
      scan.tail_error = where(path, line_no) + ": " + why + at_byte(offset);
      break;
    }
    offset = line_end;
  }

  if (scan.clean && has_open) {
    // The orphan runs begin right after the last complete cell.
    scan.clean = false;
    scan.tail_error = where(path, open.first_line) + ": incomplete cell " +
                      std::to_string(open.key.cell_index) +
                      " at end of file (runs without a summary)" +
                      at_byte(scan.valid_bytes);
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
  if (header != report::run_layout().keys)
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
  CellBlock open;
  bool has_open = false;
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
    const std::vector<std::string> row = report::split_csv_line(line);
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
    // Strict full-match parsing of every key column: a corrupt row stops
    // the scan at a named field.
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

  // EOF cannot prove the final block complete; it is handed over past
  // valid_bytes. It survives an unclean scan too: its rows were all
  // validated before the stop.
  if (has_open) scan.blocks.push_back(std::move(open));
  return scan;
}

void render_csv(const std::string& path, std::uint64_t bytes,
                std::ostream& out) {
  if (bytes == 0) return;
  std::string text(bytes, '\0');
  std::ifstream in(path, std::ios::binary);
  if (!in.read(text.data(), static_cast<std::streamsize>(bytes)))
    throw std::runtime_error("cannot read " + path);
  std::string rows;
  report::append_csv_rows(rows, text, path, 1);
  report::write_csv_header(out);
  out << rows;
}

}  // namespace mtr::dist
