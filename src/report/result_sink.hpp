// Streaming result sinks: the structured-output half of the report layer.
//
// A ResultSink receives every completed BatchRunner cell and persists it
// incrementally — one flat record per replicate run, flushed per cell — so
// long sweeps stream to disk as they go and a killed sweep keeps what it
// finished. A record has one encoder: encode_cell writes a cell's JSONL
// lines, and every CSV row is rendered from those lines (append_csv_rows),
// in the sweep, in resume and in merge alike, so the two formats cannot
// drift apart. A record line has one reader too: RecordWalker holds it to
// the key layout its encoder names, so every reader means the same by a
// valid record. Every record names its cell through the cell key
// (report/cell_key.hpp): the encoder writes its column table, and the
// scanner reads it back.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/batch_runner.hpp"
#include "report/cell_key.hpp"

namespace mtr::report {

/// Version stamped into every record (the `schema` column / key), and the
/// only version the dist-layer readers accept. Bump it whenever a field is
/// added, removed, renamed, or reordered. History:
/// v2: added `cell_index` (invocation-global cell ordinal) to run and cell
/// records — the merge key for sharded sweeps.
/// v3: added the scenario-axis coordinates — `cpu_hz`, `ram_frames`,
/// `reclaim_batch`, `ptrace`, `jiffy_timers` — to run and cell records.
/// v4: added the population axes — `population`, `attacker_fraction`,
/// `victim_nice`, `attacker_nice` — plus the per-tenant distribution
/// columns (`pop_*` scalars and encoded QuantileSketch strings) to run
/// records and the `pop_*_dist` quantile summaries to cell records.
inline constexpr std::uint64_t kSchemaVersion = 4;

/// Compact QuantileSketch serialization for run records:
/// "count;zero;min;max;pos;neg" where pos/neg are space-separated
/// "index:count" bucket lists. No commas, quotes, or braces, so the token
/// embeds in CSV cells and JSON strings without any escaping — which is
/// what keeps shard merges byte-exact: mtr_merge decodes the per-run
/// sketches, merges them (exact, order-free), and re-encodes.
std::string encode_sketch(const QuantileSketch& sketch);
/// Strict inverse of encode_sketch: nullopt on any malformed or
/// non-canonical token (one encode_sketch would not write), and on a
/// sketch QuantileSketch::load_error refuses (count off its buckets, min
/// above max) — the check read_metrics_json makes too.
std::optional<QuantileSketch> decode_sketch(std::string_view token);

/// Appends `s` RFC-4180 escaped: wrapped in quotes (embedded quotes
/// doubled) when it contains a comma, quote, or newline.
void append_csv_escaped(std::string& out, std::string_view s);

/// Inverse of append_csv_escaped for one line: splits on unquoted commas,
/// undoing quoting and doubled quotes. Our records never embed newlines,
/// so a line is always a whole row.
std::vector<std::string> split_csv_line(std::string_view line);

/// Writes the canonical CSV header row (run_layout's keys, escaped). Shared
/// by CsvSink and mtr_merge so merged files are byte-identical.
void write_csv_header(std::ostream& os);

/// One aggregate of a cell record: its key and accumulated statistics.
struct CellStatSummary {
  std::string key;
  RunningStats stats;
};
/// A `record:"cell"` JSONL line (the cell key plus the aggregates),
/// decoupled from CellStats so mtr_merge can recompute it from parsed run
/// records.
struct CellSummary {
  CellKey key;
  std::string workload;
  std::uint64_t seeds = 0;
  bool source_ok = true;
  std::vector<CellStatSummary> stats;  // CellStats::for_each_stat order
  /// Distribution aggregates (CellStats::for_each_sketch order), rendered
  /// as {n, min, max, p50, p90, p99}.
  std::vector<std::pair<std::string, QuantileSketch>> sketches;
};
CellSummary summarize_cell(const std::string& sweep, const core::CellStats& cell);

/// Appends one `record:"cell"` JSONL line, newline included. The single
/// emitter behind JsonlSink and mtr_merge: merged aggregates recomputed
/// from run records come out byte-identical to the single-machine line.
void append_cell_record(std::string& out, const CellSummary& summary);

/// What a valid line of one record kind is: its opening, then exactly
/// these keys in the order its encoder writes them, then its closing brace.
/// The encoder's field visitors name the keys, so a layout cannot drift
/// from its writer.
struct RecordLayout {
  std::string opening;            // e.g. {"record":"run"
  std::vector<std::string> keys;  // in emission order
  std::vector<std::string> marks;  // each key's ,"key": (no comma first in {)
  /// Run records: keys [0, head) are the head; the rest, the body, is what
  /// a cell's copied replicates repeat byte for byte.
  std::size_t head = 0;

  /// The position of `key`, which the writer must write.
  std::size_t index(std::string_view key) const;
};

/// A `record:"run"` line; its keys are the CSV columns.
const RecordLayout& run_layout();
/// A `record:"cell"` summary line, as append_cell_record writes it.
const RecordLayout& cell_layout();
/// One {n, mean, stddev, min, max} aggregate of a cell summary.
const RecordLayout& stat_layout();

/// The one reader of a record line: checks it against a layout and keeps
/// each key's token (mtr::skip_json_value) as a view into the line. A walk
/// may stop after any key and resume there: read(layout.head) reads a run
/// line's head, and a later read_all() its body.
class RecordWalker {
 public:
  explicit RecordWalker(const RecordLayout& layout);

  /// Begins walking `line`, which must outlive the walk; false when it
  /// does not open with the layout's opening.
  bool start(std::string_view line);
  /// Reads the keys before `end` not read yet, and after the last key the
  /// closing brace that ends the line; false at the first key out of place
  /// or malformed token.
  bool read(std::size_t end);
  bool read_all() { return read(layout_->keys.size()); }

  const RecordLayout& layout() const { return *layout_; }
  std::string_view line() const { return line_; }
  /// Key `i`'s token, once read: strings keep quotes and escapes.
  std::string_view token(std::size_t i) const { return tokens_[i]; }
  /// The unread rest of the line: after read(layout.head), the body.
  std::string_view rest() const { return line_.substr(at_); }
  /// Why the walk stopped, naming the column (byte in the line) and the
  /// first key out of place: "has 'seed_index' at column 95 where the
  /// writer puts 'seed'".
  std::string error() const;

 private:
  const RecordLayout* layout_;
  std::string_view line_;
  std::size_t at_ = 0;    // where the next key's mark must begin
  std::size_t next_ = 0;  // keys read
  std::vector<std::string_view> tokens_;
};

/// Appends `cell`'s JSONL lines: one run record per replicate, then the
/// cell summary (append_cell_record). The one record encoder. A run whose
/// body equals the previous run's, value for value, copies its bytes, so
/// the copied replicates of a seed-invariant cell are encoded once.
void encode_cell(std::string& out, const std::string& sweep,
                 const core::CellStats& cell);

/// Appends the CSV rows of whole JSONL lines (each ending in a newline,
/// the last one optionally not), the first being line `first_line` of
/// `path`: a run record's row is its tokens (RecordWalker over
/// run_layout()), each string decoded (mtr::decode_json_string) and
/// CSV-escaped, every other token copied verbatim; a `record:"cell"`
/// summary has none. A run line whose body repeats the previous run line's
/// byte for byte reuses its cells. Throws std::runtime_error naming
/// "path:line" at a run record out of its layout or whose string does not
/// decode.
void append_csv_rows(std::string& out, std::string_view lines,
                     std::string_view path, std::uint64_t first_line);

/// Streaming consumer of completed sweep cells.
class ResultSink {
 public:
  virtual ~ResultSink() = default;

  /// Persists one cell (all its seed replicates) and flushes, so results
  /// hit disk per cell rather than at sweep end.
  virtual void write_cell(const std::string& sweep,
                          const core::CellStats& cell) = 0;
};

enum class OpenMode {
  kTruncate,  // start a fresh file
  kAppend,    // append; the header is only written if the file was empty
};

/// One CSV row per run, rendered from the run's JSONL record. The header
/// row is written once per file — appending to a non-empty file is safe
/// and yields one concatenated table (the schema column lets readers
/// reject mixed versions).
class CsvSink final : public ResultSink {
 public:
  explicit CsvSink(const std::string& path, OpenMode mode = OpenMode::kTruncate);
  /// Writes to a caller-owned stream (tests); the header is still emitted
  /// exactly once.
  explicit CsvSink(std::ostream& os);

  /// Encodes the cell's run records as encode_cell does, then writes
  /// their rows.
  void write_cell(const std::string& sweep, const core::CellStats& cell) override;
  /// Writes the rows of whole JSONL lines encode_cell wrote (one cell's,
  /// as the driver hands them to both sinks) and flushes.
  void write_lines(std::string_view lines);

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_;
  bool header_written_ = false;
  /// Reused per-cell buffers: the cell's lines and its rows, written with
  /// one stream insertion, so steady-state sweeps stop reallocating.
  std::string lines_;
  std::string buf_;
};

/// One JSON object per line. Run records carry `"record":"run"` and the
/// flat field list; each cell additionally emits a `"record":"cell"`
/// summary line with the per-cell aggregate statistics (count, mean,
/// stddev, min, max for every CellStats accumulator) — the numbers a
/// figure pipeline plots directly. Lines are self-describing, so append
/// mode needs no header handling at all.
class JsonlSink final : public ResultSink {
 public:
  explicit JsonlSink(const std::string& path, OpenMode mode = OpenMode::kTruncate);
  explicit JsonlSink(std::ostream& os);

  /// Encodes the cell (encode_cell) and writes its lines.
  void write_cell(const std::string& sweep, const core::CellStats& cell) override;
  /// Writes whole JSONL lines encode_cell wrote and flushes.
  void write_lines(std::string_view lines);

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_;
  /// Reused per-cell line buffer (see CsvSink::buf_).
  std::string buf_;
};

}  // namespace mtr::report
