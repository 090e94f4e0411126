// Reading the records back. The JSONL file is the record every decision
// reads: a sequence of cell blocks (a cell's run records, then its
// `record:"cell"` summary), possibly ending in the partial tail a killed
// sweep left behind. scan_jsonl collects the complete blocks, remembers
// where the valid prefix ends (so resume can truncate the tail away), and
// refuses records of any schema version but report::kSchemaVersion with a
// SchemaError naming the file, line, byte, and version found. Any other
// record out of its writer's layout (report::RecordWalker: a key moved,
// repeated, dropped or added) stops the scan, as it stops every reader.
// Coordinates are read by position through the cell key's column table; a
// record whose key differs from its block's stops the scan. A run whose
// body repeats the previous run's byte for byte is read only to its body.
// Blocks are kept as byte ranges and files are read through a fixed
// buffer, so a scan holds memory per cell, not per byte. mtr_merge
// recomputes each cell's aggregate from the scan's walk through a
// JsonlVisitor. The CSV is a view of the JSONL (report::append_csv_rows),
// which resume and `mtr_merge --csv` render in a second pass.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hpp"
#include "report/result_sink.hpp"

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
};

struct FileScan {
  /// In file order; only a CSV scan's final block may be open (ending past
  /// valid_bytes), as EOF cannot prove a CSV cell complete.
  std::vector<CellBlock> blocks;
  /// Offset just past the last complete block (for CSV: at least the
  /// header), i.e. the safe truncation point that drops any partial tail.
  std::uint64_t valid_bytes = 0;
  bool clean = true;        // false: scanning stopped at a malformed tail
  std::string tail_error;   // why, when !clean
};

/// Any one-line JSON object into a key -> token map (the last duplicate
/// wins); false on malformed input. Records are read through
/// report::RecordWalker instead.
bool parse_json_line(const std::string& line,
                     std::map<std::string, std::string>& out);

/// Scans a JsonlSink file. Throws std::runtime_error when the file cannot
/// be opened and SchemaError (naming the file, line, and byte) when any
/// record carries a schema version other than kSchemaVersion; malformed
/// structure instead stops the scan (clean=false) so callers can treat the
/// tail as a crash artifact.
FileScan scan_jsonl(const std::string& path);

/// Sees each record scan_jsonl_records accepts, through the walker the
/// scan read it with, so the visitor reads its tokens by position.
/// `on_run` gets every run record after it joined `block` (so block.seeds
/// already counts it); when `repeats`, its body repeats the block's
/// previous run line byte for byte and only its head tokens were read.
/// `on_cell` gets the summary line that closes `block`, walked in full.
/// Either may be empty.
struct JsonlVisitor {
  std::function<void(const CellBlock& block, std::uint64_t line_no,
                     const report::RecordWalker& run, bool repeats)>
      on_run;
  std::function<void(const CellBlock& block, std::uint64_t line_no,
                     const report::RecordWalker& cell)>
      on_cell;
};

/// scan_jsonl, showing every accepted record to `visitor` as it goes.
FileScan scan_jsonl_records(const std::string& path,
                            const JsonlVisitor& visitor);

/// Scans a CsvSink file. Throws on open failure, and SchemaError on a
/// header other than run_layout()'s keys or a row stamped with another
/// schema version. Only perfbench's scanner probe still calls it.
FileScan scan_csv(const std::string& path);

/// Writes the CSV view of the first `bytes` bytes (whole lines, e.g. a
/// scan's valid prefix) of the JSONL file `path`, read into memory: the
/// header and the rows, or nothing when `bytes` is 0, as CsvSink writes
/// nothing before its first cell. Throws as report::append_csv_rows does.
void render_csv(const std::string& path, std::uint64_t bytes,
                std::ostream& out);

}  // namespace mtr::dist
