// Streaming result sinks: the structured-output half of the report layer.
//
// A ResultSink receives every completed BatchRunner cell and persists it
// incrementally — one flat record per replicate run, flushed per cell — so
// long sweeps stream to disk as they go and a killed sweep keeps what it
// finished. A record has one encoder: encode_cell writes a cell's JSONL
// lines, and every CSV row is rendered from those lines (append_csv_rows),
// in the sweep, in resume and in merge alike, so the two formats cannot
// drift apart. Every record names its cell through the cell key
// (report/cell_key.hpp): the encoder writes its column table, and the
// dist-layer scanners read it back.
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

/// The record's keys in emission order (the CSV header): the names the
/// encoder's field visitors give, computed once.
const std::vector<std::string>& run_schema_keys();

/// Appends `s` RFC-4180 escaped: wrapped in quotes (embedded quotes
/// doubled) when it contains a comma, quote, or newline.
void append_csv_escaped(std::string& out, std::string_view s);

/// Inverse of append_csv_escaped for one line: splits on unquoted commas,
/// undoing quoting and doubled quotes. Our records never embed newlines,
/// so a line is always a whole row.
std::vector<std::string> split_csv_line(std::string_view line);

/// Writes the canonical CSV header row (run_schema_keys, escaped). Shared
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
/// line's fields in line order, finding each string's end with
/// mtr::skip_json_string. Returns false on malformed input (e.g. a
/// truncated tail) instead of throwing; `out` then holds the fields read
/// before the fault.
bool tokenize_json_line(std::string_view line, JsonFields& out);

/// Where a run record's body begins: the offset of the comma before its
/// first body key ("workload"), when `line` opens with "record":"run" and
/// then exactly the run prefix keys (schema, the cell key's head columns,
/// seed, seed_index); npos otherwise. The body — every result field, the
/// population columns and the distributions — is the unit a cell's copied
/// replicates repeat. The one definition of the split: the encoder's
/// prefix visitor names the keys, and the renderer and mtr_merge's
/// aggregate check find the body through this.
std::size_t run_body_begin(std::string_view line);

/// Appends `cell`'s JSONL lines: one run record per replicate, then the
/// cell summary (append_cell_record). The one record encoder. A run whose
/// body equals the previous run's, value for value, copies its bytes, so
/// the copied replicates of a seed-invariant cell are encoded once.
void encode_cell(std::string& out, const std::string& sweep,
                 const core::CellStats& cell);

/// Appends the CSV rows of whole JSONL lines (each ending in a newline,
/// the last one optionally not), the first being line `first_line` of
/// `path`: a run record's row is the record with "record" dropped, each
/// string token decoded (mtr::decode_json_string) and CSV-escaped, every
/// other token copied verbatim; a `record:"cell"` summary has none. A run
/// line whose body repeats the previous run line's byte for byte reuses
/// its cells. Throws std::runtime_error naming "path:line" at a run record
/// whose keys are not "record" then run_schema_keys() in order or whose
/// string does not decode.
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
