// Streaming result sinks: the structured-output half of the report layer.
//
// A ResultSink receives every completed BatchRunner cell and persists it
// incrementally — one flat record per replicate run, flushed per cell — so
// long sweeps stream to disk as they go and a killed sweep keeps what it
// finished. CsvSink and JsonlSink share one canonical field list
// (flatten_run), so the two formats cannot drift apart. Every record
// names its cell through the cell key (report/cell_key.hpp): flatten_run
// and append_cell_record emit its column table, and the dist-layer
// scanners read it back.
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

struct Field {
  std::string_view key;  // a string literal or a kCellKeyColumns name
  FieldValue value;
};

/// The canonical record for run `seed_i` of `cell`: schema, the cell key's
/// head columns, grid seed, every ExperimentResult field, then the key's
/// population columns and the per-tenant distributions. Both sinks emit
/// exactly this list in exactly this order.
std::vector<Field> flatten_run(const std::string& sweep,
                               const core::CellStats& cell,
                               std::size_t seed_i);

/// The record's keys in emission order (the CSV header), derived from a
/// flatten_run of a default-constructed cell.
std::vector<std::string> run_schema_keys();

/// Append one field value in CSV (append_csv_escaped text) or JSON (quoted
/// text) spelling. Doubles render as printf's %.17g (mtr::append_number).
/// The CSV view (dist::append_csv_rows) rests on this contract: every
/// non-string value has one spelling in both formats, byte for byte.
void append_csv(std::string& out, const FieldValue& v);
void append_json(std::string& out, const FieldValue& v);

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

/// One CSV row per run. The header row is written once per file —
/// appending to a non-empty file is safe and yields one concatenated
/// table (the schema column lets readers reject mixed versions).
class CsvSink final : public ResultSink {
 public:
  explicit CsvSink(const std::string& path, OpenMode mode = OpenMode::kTruncate);
  /// Writes to a caller-owned stream (tests); the header is still emitted
  /// exactly once.
  explicit CsvSink(std::ostream& os);

  void write_cell(const std::string& sweep, const core::CellStats& cell) override;

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_;
  bool header_written_ = false;
  /// Reused per-cell line buffer: rows are assembled here and written with
  /// one stream insertion, so steady-state sweeps stop reallocating.
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

  void write_cell(const std::string& sweep, const core::CellStats& cell) override;

 private:
  std::unique_ptr<std::ostream> owned_;
  std::ostream* os_;
  /// Reused per-cell line buffer (see CsvSink::buf_).
  std::string buf_;
};

}  // namespace mtr::report
