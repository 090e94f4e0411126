// The sweep substrate: a name -> sweep registry and the SweepContext every
// sweep body runs against (parameters, where results go, and the
// run_grid entry point). The bench layer registers its figure/table
// sweeps here; the CLI driver that builds contexts, owns flag parsing and
// every invocation policy (replicate seeds, cell numbering, shard and
// resume gating, progress spans, record sinks, --dry-run, --engine,
// tracing, metrics) lives in src/dist (dist::sweep_main), so sweep
// definitions contain experiment logic only: a body builds its grids'
// experiment axes and renders its figure, nothing more.
//
// The driver runs every selected sweep's grids through one BatchRunner
// pool, so each body runs twice. In the plan pass, run_grid queues the
// grid in the sweep's SweepGrids and returns {}. The driver then plans
// every queued grid (the part --dry-run prints), opens each sweep's
// progress span over its queued cells, runs them all at once and writes
// each cell to its own sweep's CSV and JSONL files, in cell_index order.
// In the render pass, run_grid hands each grid's finished cells back, in
// the order they were queued, and the body renders its figure from them.
// A sharded, resumed or dry invocation sees only part of the results and
// renders nothing, so it has no render pass and the pool keeps none of
// its cells.
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "core/batch_runner.hpp"
#include "report/result_sink.hpp"
#include "trace/metrics.hpp"

namespace mtr::report {

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

  /// The sweep's slice of the pool: wall time from its first run start to
  /// its last run finish, and each worker's busy seconds on its runs.
  trace::PoolMetrics pool() const;
};

/// Everything a sweep body needs: the sweep parameters, where results
/// stream, and where human-readable rendering goes.
struct SweepContext {
  double scale = 0.25;                 // workload scale (MTR_BENCH_SCALE)
  std::vector<std::uint64_t> seeds;    // replicate grid seeds per cell
  std::ostream* out = nullptr;         // never null; may be a null stream
  /// True when this invocation cannot see the full result set (dry run,
  /// shard of a larger grid, resume, or the plan pass): sweep bodies skip
  /// their ASCII figure/table rendering — the sinks plus mtr_merge are the
  /// output. With `grids`, true exactly in the plan pass.
  bool partial = false;

  /// The driver's slot for this sweep in the invocation's pool. Null runs
  /// each grid on the spot, in a pool of its own, streaming into `sink`.
  SweepGrids* grids = nullptr;

  /// Without `grids`: run_grid's pool size (0 = hardware concurrency),
  /// where it streams each cell (never null then), and the cell counter
  /// each grid claims its index range from.
  unsigned threads = 0;
  ResultSink* sink = nullptr;
  std::size_t* cell_cursor = nullptr;

  std::ostream& os() const { return *out; }

  /// Runs one BatchRunner grid on behalf of `sweep_name`, replicated over
  /// `seeds` (the grid's own seeds are overwritten). The plan pass queues
  /// the grid and returns {}; the render pass returns the cells the pool
  /// produced for it, in grid order (a subset when the driver gated the
  /// grid). A context without `grids` claims the grid's cell-index range
  /// and runs it on the spot.
  std::vector<core::CellStats> run_grid(const std::string& sweep_name,
                                        core::BatchGrid grid) const;
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
