// The sweep substrate: a name -> sweep registry and the SweepContext every
// sweep body runs against (parameters, sinks, and the run_grid entry point
// that applies cell gating for sharded/resumed sweeps). A gate judges each
// cell by its CellKey, built by the same report::cell_key the sinks use,
// so resume compares exactly what the records hold. The bench layer
// registers its figure/table sweeps here; the CLI driver that builds
// contexts and owns flag parsing lives in src/dist (dist::sweep_main), so
// sweep definitions contain experiment logic only.
//
// The driver runs every selected sweep's grids through one BatchRunner
// pool, so each body runs twice. In the plan pass, run_grid claims the
// grid's cell range, applies the gate, queues the grid in the sweep's
// SweepGrids and returns {} — the same pass --dry-run prints. The driver
// then runs all queued grids at once and streams each cell into its own
// sweep's sinks, in cell_index order. In the render pass, run_grid hands
// each grid's finished cells back, in the order they were queued, and the
// body renders its figure from them. A sharded, resumed or dry invocation
// sees only part of the results and renders nothing, so it has no render
// pass and the pool keeps none of its cells.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_runner.hpp"
#include "report/result_sink.hpp"
#include "trace/metrics.hpp"

namespace mtr::report {

/// Decides, in grid order, whether a cell executes. It sees the cell's key
/// before anything runs — the same columns its records will carry — and
/// the cell's class position: how many earlier cells of the invocation
/// share its cost class (attacked or baseline, core::cell_has_attack).
/// The driver composes shard ownership (dealt by class position) and
/// resume skipping into one gate; a gate may throw to abort the sweep
/// (e.g. resume output that contradicts the grid).
using CellGate =
    std::function<bool(const CellKey&, std::uint64_t class_position)>;

/// One sweep's share of the invocation's pool, filled and drained by the
/// two passes (see the file comment).
struct SweepGrids {
  struct Queued {
    std::string sweep;  // run_grid's name: the records' sweep column
    core::BatchGrid grid;
  };
  /// Plan pass: every grid run_grid saw, in call order.
  std::vector<Queued> queued;
  /// The pool's output, one per queued grid, same order.
  std::vector<core::GridRun> runs;
  /// Render pass: how many of `runs` run_grid has handed back.
  std::size_t rendered = 0;
  /// The progress span begin_progress asked for, less the cells the gate
  /// refused. The driver opens it when emission reaches the sweep.
  std::string progress_label;
  std::size_t progress_total = 0;
  std::size_t progress_skipped = 0;

  /// The sweep's slice of the pool: wall time from its first run start to
  /// its last run finish, and each worker's busy seconds on its runs.
  trace::PoolMetrics pool() const;
};

/// Everything a sweep body needs: the sweep parameters, where results
/// stream, and where human-readable rendering goes.
struct SweepContext {
  double scale = 0.25;                 // workload scale (MTR_BENCH_SCALE)
  std::vector<std::uint64_t> seeds;    // replicate grid seeds per cell
  unsigned threads = 0;  // without `grids`: run_grid's pool; 0 = hardware
  /// --engine override: forces every grid's kernel onto the event-driven
  /// or the slice-stepped loop. Engine choice is not a grid axis — cell
  /// indices, seeds, and record columns are untouched, so two runs that
  /// differ only here must produce byte-identical sink artifacts (the CI
  /// equivalence job diffs exactly that). Unset keeps each grid's own
  /// KernelConfig default.
  std::optional<bool> event_driven;
  /// Without `grids`: where run_grid streams each cell. Never null then.
  ResultSink* sink = nullptr;
  std::ostream* out = nullptr;         // never null; may be a null stream

  /// Invocation-global cell counter, owned by the driver. run_grid claims
  /// a contiguous index range per grid — across every grid of every
  /// selected sweep — so records carry a stable merge ordinal.
  std::size_t* cell_cursor = nullptr;
  /// Cells the gate admitted so far (driver-owned; may be null).
  std::size_t* owned_cursor = nullptr;
  /// Per cost class (baseline, attacked), the cells planned so far —
  /// driver-owned, like cell_cursor, and required with a gate. Every cell
  /// advances its class's counter, admitted or not, so a cell's class
  /// position depends only on the selected sweeps.
  std::array<std::uint64_t, 2>* class_cursor = nullptr;
  /// Sharding/resume gate; null admits every cell (and counts no classes).
  CellGate gate;
  /// --dry-run: run_grid prints the cell plan to `plan` and executes
  /// nothing.
  bool dry_run = false;
  /// True when this invocation cannot see the full result set (dry run,
  /// shard of a larger grid, resume, or the plan pass): sweep bodies skip
  /// their ASCII figure/table rendering — the sinks plus mtr_merge are the
  /// output.
  bool partial = false;
  /// Dry-run plan destination; falls back to `out` when null.
  std::ostream* plan = nullptr;

  /// --trace-dir: when non-empty, run_grid writes one Perfetto trace-event
  /// JSON per admitted cell (first replicate only) into this directory.
  std::string trace_dir;
  /// --metrics: collect kernel counters and run telemetry for every run.
  bool collect_stats = false;

  /// The driver's slot for this sweep in the invocation's pool. Null runs
  /// each grid on the spot, in a pool of its own, streaming into `sink`.
  SweepGrids* grids = nullptr;
  /// With `grids`: false in the plan pass, true in the render pass.
  bool render = false;

  std::ostream& os() const { return *out; }

  /// Runs one BatchRunner grid on behalf of `sweep_name`. The plan pass
  /// (and a context without `grids`) claims the grid's global cell-index
  /// range and applies the gate (sharding/resume); the plan pass then
  /// queues the grid and returns {}, a context without `grids` runs it.
  /// The render pass returns the cells the pool produced for this grid.
  /// Cells come back in grid order — a subset of the grid when gated,
  /// none under --dry-run.
  std::vector<core::CellStats> run_grid(const std::string& sweep_name,
                                        core::BatchGrid grid) const;

  /// Names the sweep's progress span and its cell count. Recorded by the
  /// plan pass for the driver; a no-op otherwise.
  void begin_progress(const std::string& label, std::size_t total_cells) const;
};

struct SweepSpec {
  std::string name;   // CLI key, e.g. "fig04"
  std::string title;  // one-line description for --list
  std::function<void(const SweepContext&)> run;
};

class SweepRegistry {
 public:
  /// Registration order is the --list / --all execution order. Duplicate
  /// names are rejected.
  void add(SweepSpec spec);

  const SweepSpec* find(std::string_view name) const;
  const std::vector<SweepSpec>& specs() const { return specs_; }

 private:
  std::vector<SweepSpec> specs_;
};

}  // namespace mtr::report
