// Reading the sink formats back: block-level scanners over the CSV/JSONL
// files CsvSink/JsonlSink write. A valid file is a sequence of cell blocks
// (the run records of one grid cell, in JSONL followed by its
// `record:"cell"` summary), possibly ending in the partial tail a killed
// sweep left behind. Scanners collect the complete blocks, remember where
// the valid prefix ends (so resume can truncate the tail away), and refuse
// any record stamped with a schema version other than the one this build
// writes (report::kSchemaVersion): files from older builds are rejected
// with a SchemaError naming the file, line, byte, and version found.
// Both scanners read a record's coordinates through the cell key's column
// table (report::CellKeyColumn::parse), so they share one strict parser
// per type; a record whose key differs from its block's stops the scan.
// Blocks are kept as byte ranges and files are read through a fixed
// buffer, so a scan holds memory per cell, not per byte. Every JSONL line
// goes through one tokenizer (tokenize_json_line) exactly once; mtr_merge
// recomputes each cell's aggregate from that same parse through a
// JsonlVisitor. Shared by ResumeIndex, mtr_merge and mtr_inspect.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hpp"
#include "report/cell_key.hpp"

namespace mtr::dist {

// Strict integer parsing (mtr::parse_u64 in common/parse.hpp) is shared
// with the CLI flag parsers: "12abc", " 12", "+0x1f" and negatives are all
// rejected instead of silently accepted the way bare std::stoull would.

/// A record file written with another schema version (or CSV layout) than
/// this build reads. Distinct from other scan failures so resume and merge
/// can say what to do about it.
struct SchemaError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws the one-line refusal of a file stamped with schema `found` where
/// this build reads only `reads`: "<path>:<line>: <what> schema version
/// <found>, produced by an older metertrust; this build reads only
/// v<reads> (byte <offset>)" ("a newer" when found > reads).
[[noreturn]] void throw_schema_error(const std::string& path,
                                     std::uint64_t line, std::uint64_t offset,
                                     const std::string& what,
                                     std::uint64_t found, std::uint64_t reads);

/// One reconstructed cell block. It holds the block's coordinates and byte
/// range, not its lines, so a scan's memory grows with the number of cells
/// rather than the size of the file; consumers that re-emit a block copy
/// its byte range, which preserves the original bytes exactly.
struct CellBlock {
  report::CellKey key;  // shared by every record of the block
  /// 1-based line number of the block's first run record (error reports).
  std::uint64_t first_line = 0;
  std::vector<std::uint64_t> seeds;    // one per run record, in file order
  /// The block's bytes in its file: [begin_offset, end_offset) spans its
  /// run records and, in JSONL, the summary line that closes it.
  std::uint64_t begin_offset = 0;
  std::uint64_t end_offset = 0;
  /// True when the block provably ended: JSONL blocks close on their cell
  /// record; CSV blocks close when the next block starts (the final CSV
  /// block at EOF stays open — the file alone cannot prove it complete).
  bool closed = false;
};

struct FileScan {
  std::vector<CellBlock> blocks;  // in file order; only the last may be open
  /// Offset just past the last closed block (for CSV: at least the header),
  /// i.e. the safe truncation point that drops any partial tail.
  std::uint64_t valid_bytes = 0;
  /// CSV only: offset just past the header row (0 when the file is empty,
  /// and always 0 for JSONL) — the truncation point when no cell survives.
  std::uint64_t header_bytes = 0;
  bool clean = true;        // false: scanning stopped at a malformed tail
  std::string tail_error;   // why, when !clean
};

/// One key of a one-line JSON object and its raw token, both views into
/// the line: the key between its quotes (escapes left as written), the
/// token verbatim (string tokens keep their quotes, nested objects their
/// braces).
struct JsonField {
  std::string_view key;
  std::string_view token;
};
using JsonFields = std::vector<JsonField>;

/// The one tokenizer for our one-line JSON objects: fills `out` with the
/// line's fields in line order, finding each string's end with the
/// document parser's scanner (json::skip_string). Returns false on malformed input (e.g. a
/// truncated tail) instead of throwing; `out` then holds the fields read
/// before the fault.
bool tokenize_json_line(std::string_view line, JsonFields& out);

/// The token of `key`, or nullopt when the line lacks it. A repeated key
/// reads as its last occurrence, as in a JSON object.
std::optional<std::string_view> json_token(const JsonFields& fields,
                                           std::string_view key);

/// tokenize_json_line into a key -> token map (the last duplicate wins).
bool parse_json_line(const std::string& line,
                     std::map<std::string, std::string>& out);

/// Typed readers over json_token; nullopt when the key is missing or the
/// token has the wrong shape. Strings decode through the document
/// parser's decoder (json::decode_string), so a malformed escape reads as
/// a wrong shape. Numbers are strict (mtr::parse_u64 /
/// mtr::parse_f64); json_double takes the writer's %.17g tokens, inf and
/// nan included.
std::optional<std::string> json_string(const JsonFields& fields,
                                       std::string_view key);
std::optional<std::uint64_t> json_u64(const JsonFields& fields,
                                      std::string_view key);
std::optional<double> json_double(const JsonFields& fields,
                                  std::string_view key);
std::optional<bool> json_bool(const JsonFields& fields, std::string_view key);

/// Scans a JsonlSink file. Throws std::runtime_error when the file cannot
/// be opened and SchemaError (naming the file, line, and byte) when any
/// record carries a schema version other than kSchemaVersion; malformed
/// structure instead stops the scan (clean=false) so callers can treat the
/// tail as a crash artifact.
FileScan scan_jsonl(const std::string& path);

/// Sees each record scan_jsonl_records accepts, tokenized once for the
/// scan and the visitor together. `on_run` gets every run record after it
/// joined `block` (so block.seeds already counts it); `on_cell` gets the
/// summary line that closes `block` (without its newline). Either may be
/// empty.
struct JsonlVisitor {
  std::function<void(const CellBlock& block, std::uint64_t line_no,
                     const JsonFields& fields)>
      on_run;
  std::function<void(const CellBlock& block, std::uint64_t line_no,
                     std::string_view line, const JsonFields& fields)>
      on_cell;
};

/// scan_jsonl, showing every accepted record to `visitor` as it goes.
FileScan scan_jsonl_records(const std::string& path,
                            const JsonlVisitor& visitor);

/// Scans a CsvSink file. Throws on open failure, and SchemaError on a
/// header other than run_schema_keys() or a row stamped with another
/// schema version.
FileScan scan_csv(const std::string& path);

/// The canonical aggregate keys of a `record:"cell"` line, in
/// CellStats::for_each_stat order — what mtr_merge recomputes.
std::vector<std::string> cell_stat_keys();

/// The distribution aggregates of a cell record as (cell-record key,
/// run-record column) pairs in CellStats::for_each_sketch order — e.g.
/// ("pop_billing_error_dist", "pop_billing_error_sketch"). mtr_merge
/// decodes the run column of every run, merges, and re-emits the summary.
const std::vector<std::pair<std::string, std::string>>& cell_sketch_columns();

}  // namespace mtr::dist
