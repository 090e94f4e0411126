// Streaming result sinks: the structured-output half of the report layer.
//
// A ResultSink receives every completed BatchRunner cell and persists it
// incrementally — one flat record per replicate run, flushed per cell — so
// long sweeps stream to disk as they go and a killed sweep keeps what it
// finished. CsvSink and JsonlSink share one canonical field list
// (flatten_run), so the two formats cannot drift apart; MultiSink fans a
// cell out to several sinks at once. Every record names its cell through
// the cell key (report/cell_key.hpp): flatten_run and write_cell_record
// emit its column table, and the dist-layer scanners read it back.
#pragma once

#include <cstdint>
#include <functional>
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
/// Strict inverse of encode_sketch: nullopt on any malformed token.
std::optional<QuantileSketch> decode_sketch(std::string_view token);

struct Field {
  std::string key;
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

std::string format_csv(const FieldValue& v);
std::string format_json(const FieldValue& v);

/// RFC-4180 escaping: wraps in quotes (doubling embedded quotes) when the
/// cell contains a comma, quote, or newline.
std::string csv_escape(const std::string& s);

/// Inverse of csv_escape for one line: splits on unquoted commas, undoing
/// quoting and doubled quotes. Our records never embed newlines, so a line
/// is always a whole row.
std::vector<std::string> split_csv_line(const std::string& line);

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

/// Writes one `record:"cell"` JSONL line. The single emitter behind
/// JsonlSink and mtr_merge: merged aggregates recomputed from run records
/// come out byte-identical to the single-machine line.
void write_cell_record(std::ostream& os, const CellSummary& summary);

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

/// Fault seam: when installed, file sinks invoke the hook (kind = "csv" or
/// "jsonl") at the top of every write_cell, before any byte of the cell is
/// emitted. A throwing hook models a transient flush failure: the cell is
/// lost whole, never half-written. Install/clear happens-before the worker
/// pool that emits cells, so no synchronization is needed on the pointer.
using SinkFlushHook = std::function<void(const char* kind)>;
void set_sink_flush_hook(SinkFlushHook hook);

/// RAII installer for the flush hook — clears it on scope exit so a fault
/// plan armed for one run_sweeps call cannot leak into the next.
class ScopedSinkFlushHook {
 public:
  explicit ScopedSinkFlushHook(SinkFlushHook hook) {
    set_sink_flush_hook(std::move(hook));
  }
  ~ScopedSinkFlushHook() { set_sink_flush_hook(nullptr); }
  ScopedSinkFlushHook(const ScopedSinkFlushHook&) = delete;
  ScopedSinkFlushHook& operator=(const ScopedSinkFlushHook&) = delete;
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

/// Fans every cell out to each registered sink, in registration order.
class MultiSink final : public ResultSink {
 public:
  void add(std::unique_ptr<ResultSink> sink);
  bool empty() const { return sinks_.empty(); }
  std::size_t size() const { return sinks_.size(); }

  void write_cell(const std::string& sweep, const core::CellStats& cell) override;

 private:
  std::vector<std::unique_ptr<ResultSink>> sinks_;
};

}  // namespace mtr::report
