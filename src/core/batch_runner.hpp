// Parallel experiment sweeps.
//
// A BatchGrid names the sweep axes of the paper's tables and ablations —
// attack x scheduler x tick granularity plus the scenario axes (CPU
// frequency, RAM size / reclaim batch, ptrace policy, jiffy-resolution
// timers) — and BatchRunner fans the cross product across a std::thread
// pool. Each run builds its own Simulation (run_experiment is
// self-contained), each cell derives its kernel seeds deterministically
// from the grid seed and the cell coordinates, and cells are aggregated
// and emitted in grid order — so the output is bit-identical for any
// thread count. Axes left empty default to the grid's `base` value and
// change nothing: cell indices, per-cell seeds, and sink artifacts are
// identical to a grid without the axis.
//
// One pool runs any number of grids: every (cell, seed) run of every grid
// is one work item, so no grid waits at a barrier for the previous one's
// tail. With more than one worker, runs are claimed by a deterministic
// cost estimate — runs with an attack before baseline runs, grid order
// otherwise — so the long runs start first; one worker claims in grid
// order. Claim order never reaches the output: cells are still emitted in
// grid order, grid after grid.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "common/stats.hpp"
#include "core/experiment.hpp"

namespace mtr::core {

/// Builds a fresh attack for one run. Attacks carry per-run state (attacker
/// pids, planted libraries), so the runner constructs one per experiment;
/// a null factory runs the baseline with no attack.
using AttackFactory = std::function<std::unique_ptr<attacks::Attack>()>;

struct AttackSpec {
  std::string label;   // row label in tables; conventionally "baseline"
  AttackFactory make;  // null => no attack
};

/// One RAM configuration: physical frames plus the kswapd-style batch the
/// reclaimer frees at a time — swept together because the paper's
/// memory-pressure behaviour depends on both.
struct RamSpec {
  std::uint32_t frames = 16 * 1024;       // KernelConfig::ram_frames
  std::uint32_t reclaim_batch = 256;      // KernelConfig::reclaim_batch
  friend constexpr bool operator==(const RamSpec&, const RamSpec&) = default;
};

/// One sweep. Cells are the cross product
///   attack x scheduler x hz x cpu x ram x ptrace x jiffy-timer
/// (attack-major, jiffy-minor); seeds are replicate runs within each cell.
/// An empty axis defaults to the corresponding value of `base` (one
/// baseline attack, base scheduler, base HZ, base kernel scenario, base
/// seed) and leaves the cell numbering of the remaining axes untouched.
struct BatchGrid {
  ExperimentConfig base{};
  std::vector<AttackSpec> attacks;
  std::vector<sim::SchedulerKind> schedulers;
  std::vector<TimerHz> ticks;
  /// Scenario axes (ablations): virtual CPU frequency, RAM size / reclaim
  /// batch, the LSM ptrace gate, and whether nanosleep timeouts ride the
  /// jiffy tick (the scheduling attack's enabling countermeasure knob).
  std::vector<CpuHz> cpu_freqs;
  std::vector<RamSpec> ram;
  std::vector<kernel::PtracePolicy> ptrace_policies;
  std::vector<bool> jiffy_timers;
  /// Population axes: tenants per host and the attacker fraction among
  /// them (src/workloads/population.hpp), plus victim/attacker niceness.
  /// Left empty they default to `base` like every other axis, and closed
  /// axes reproduce pre-population artifacts byte-for-byte.
  std::vector<std::uint32_t> population_sizes;
  std::vector<double> attacker_fractions;
  std::vector<NiceSpec> nice_levels;
  std::vector<std::uint64_t> seeds;

  /// Optional cell-subset filter (sharding, resume): called with each
  /// grid-order cell index, false skips the cell entirely. Skipped cells
  /// are absent from the returned vector and fire no callback; the cells
  /// that do run keep the seeds and coordinates they would have in the
  /// full grid, so a shard's output is a strict subset of the full run's.
  /// Null runs every cell.
  std::function<bool(std::size_t)> cell_filter;

  /// Index of this grid's first cell in the enclosing sweep invocation;
  /// stamped into CellStats::cell_index (and from there into every sink
  /// record), so shards and resumed runs number cells identically to a
  /// single-machine run.
  std::size_t cell_index_base = 0;

  /// Optional per-run trace file path: called with the grid-order cell
  /// index and the seed index; an empty return skips tracing for that run.
  /// Null (the default) traces nothing.
  std::function<std::string(std::size_t cell, std::size_t seed_i)> trace_path;
  /// Collect KernelStats for every run (aggregated into CellStats::kstats)
  /// even when no run is traced.
  bool collect_kernel_stats = false;
};

/// `grid` with empty axes replaced by their `base` defaults.
BatchGrid normalized_grid(const BatchGrid& grid);

/// Per-axis indices of one grid-order cell.
struct GridCellIndices {
  std::size_t attack = 0;
  std::size_t scheduler = 0;
  std::size_t tick = 0;
  std::size_t cpu = 0;
  std::size_t ram = 0;
  std::size_t ptrace = 0;
  std::size_t jiffy = 0;
  std::size_t population = 0;
  std::size_t fraction = 0;
  std::size_t nice = 0;
};

/// Normalized per-axis extents of a grid (empty axes count 1) and the cell
/// index arithmetic over them — the single geometry seam shared by
/// grid_cell_count, grid_cell_coords, and BatchRunner::run, so a
/// cell_filter built against a raw grid can never disagree with the
/// runner's own numbering.
struct GridGeometry {
  std::size_t attacks = 1;
  std::size_t schedulers = 1;
  std::size_t ticks = 1;
  std::size_t cpus = 1;
  std::size_t rams = 1;
  std::size_t ptraces = 1;
  std::size_t jiffies = 1;
  std::size_t populations = 1;
  std::size_t fractions = 1;
  std::size_t nices = 1;

  std::size_t cell_count() const {
    return attacks * schedulers * ticks * cpus * rams * ptraces * jiffies *
           populations * fractions * nices;
  }
  /// Decomposes a grid-order cell index (attack-major, nice-minor).
  GridCellIndices coords(std::size_t cell) const;
};

GridGeometry grid_geometry(const BatchGrid& grid);

/// Cells in the grid (the axis cross product; empty axes count 1).
std::size_t grid_cell_count(const BatchGrid& grid);

/// Coordinates of one grid-order cell, with empty axes defaulted the same
/// way normalized_grid does.
struct GridCellCoords {
  std::string attack_label;
  sim::SchedulerKind scheduler{};
  TimerHz hz{};
  CpuHz cpu{};
  RamSpec ram{};
  kernel::PtracePolicy ptrace{};
  bool jiffy_timers = true;
  std::uint32_t population = 1;
  double attacker_fraction = 0.0;
  NiceSpec nice{};
};
GridCellCoords grid_cell_coords(const BatchGrid& grid, std::size_t cell);

/// Aggregate for one grid cell across its seeds. The coordinates (the
/// GridCellCoords base) and the cell index are stamped into every sink
/// record as its cell key (report::cell_key).
struct CellStats : GridCellCoords {
  /// Invocation-global cell index: BatchGrid::cell_index_base plus the
  /// cell's grid-order index. Serialized into every record so sharded
  /// outputs can be merged back into canonical order.
  std::uint64_t cell_index = 0;

  std::vector<std::uint64_t> seeds;    // grid seeds, in grid order
  std::vector<ExperimentResult> runs;  // one result per seed, same order

  RunningStats overcharge;
  RunningStats billed_seconds;
  RunningStats billed_user_seconds;
  RunningStats billed_system_seconds;
  RunningStats true_seconds;
  RunningStats tsc_seconds;
  RunningStats pais_seconds;
  RunningStats wall_seconds;
  RunningStats major_faults;
  RunningStats debug_exceptions;
  RunningStats attacker_billed_seconds;
  RunningStats attacker_true_seconds;
  RunningStats pop_tenants;
  RunningStats pop_attackers;
  RunningStats pop_flagged_attackers;
  RunningStats pop_flagged_honest;
  RunningStats pop_billing_error_mean;
  RunningStats pop_billing_error_p99;
  RunningStats pop_attacker_advantage_mean;
  RunningStats pop_detection_tpr;
  RunningStats pop_detection_fpr;

  /// Population distribution aggregates (schema v4): exact bucket-wise
  /// merges of the per-run sketches — one sample per tenant per run, so
  /// the cell record stays O(sketch buckets) at any population size.
  QuantileSketch pop_billing_error;
  QuantileSketch pop_billed_seconds;
  QuantileSketch pop_true_seconds;
  QuantileSketch pop_attacker_advantage;

  /// Kernel observability counters summed over the cell's runs. Populated
  /// only when BatchGrid::collect_kernel_stats (or tracing) is on, and
  /// deliberately NOT part of for_each_stat: the CSV/JSONL artifact schema
  /// stays byte-identical whether observability runs or not.
  trace::KernelStats kstats;
  /// Run telemetry (gauge series + sketches) merged over the cell's runs;
  /// same gating and same schema exclusion as kstats.
  trace::Telemetry telemetry;

  /// Visits every accumulator as f(name, stats, get) where `get` extracts
  /// the value one run contributes. The single source of truth tying the
  /// member list to aggregation (BatchRunner) and serialization
  /// (JsonlSink) — add new accumulators here and every consumer follows.
  template <typename F>
  void for_each_stat(F&& f) {
    visit_stats(*this, f);
  }
  template <typename F>
  void for_each_stat(F&& f) const {
    visit_stats(*this, f);
  }

  /// Visits every population sketch as f(name, sketch, get) where `get`
  /// extracts the per-run sketch to merge in. Same single-source-of-truth
  /// role as for_each_stat, for the v4 distribution aggregates; the names
  /// are the cell-record keys.
  template <typename F>
  void for_each_sketch(F&& f) {
    visit_sketches(*this, f);
  }
  template <typename F>
  void for_each_sketch(F&& f) const {
    visit_sketches(*this, f);
  }

  const ExperimentResult& first_run() const { return runs.front(); }
  /// True when every replicate passed source-integrity verification.
  bool all_source_ok() const;

 private:
  template <typename Self, typename F>
  static void visit_stats(Self& self, F& f) {
    using R = const ExperimentResult&;
    f("overcharge", self.overcharge, +[](R r) { return r.overcharge; });
    f("billed_seconds", self.billed_seconds, +[](R r) { return r.billed_seconds; });
    f("billed_user_seconds", self.billed_user_seconds,
      +[](R r) { return r.billed_user_seconds; });
    f("billed_system_seconds", self.billed_system_seconds,
      +[](R r) { return r.billed_system_seconds; });
    f("true_seconds", self.true_seconds, +[](R r) { return r.true_seconds; });
    f("tsc_seconds", self.tsc_seconds, +[](R r) { return r.tsc_seconds; });
    f("pais_seconds", self.pais_seconds, +[](R r) { return r.pais_seconds; });
    f("wall_seconds", self.wall_seconds, +[](R r) { return r.wall_seconds; });
    f("major_faults", self.major_faults,
      +[](R r) { return static_cast<double>(r.major_faults); });
    f("debug_exceptions", self.debug_exceptions,
      +[](R r) { return static_cast<double>(r.debug_exceptions); });
    f("attacker_billed_seconds", self.attacker_billed_seconds,
      +[](R r) { return r.attacker_billed_seconds; });
    f("attacker_true_seconds", self.attacker_true_seconds,
      +[](R r) { return r.attacker_true_seconds; });
    // Population summaries.
    f("pop_tenants", self.pop_tenants,
      +[](R r) { return static_cast<double>(r.pop_tenants); });
    f("pop_attackers", self.pop_attackers,
      +[](R r) { return static_cast<double>(r.pop_attackers); });
    f("pop_flagged_attackers", self.pop_flagged_attackers,
      +[](R r) { return static_cast<double>(r.pop_flagged_attackers); });
    f("pop_flagged_honest", self.pop_flagged_honest,
      +[](R r) { return static_cast<double>(r.pop_flagged_honest); });
    f("pop_billing_error_mean", self.pop_billing_error_mean,
      +[](R r) { return r.pop_billing_error_mean; });
    f("pop_billing_error_p99", self.pop_billing_error_p99,
      +[](R r) { return r.pop_billing_error_p99; });
    f("pop_attacker_advantage_mean", self.pop_attacker_advantage_mean,
      +[](R r) { return r.pop_attacker_advantage_mean; });
    f("pop_detection_tpr", self.pop_detection_tpr,
      +[](R r) { return r.pop_detection_tpr; });
    f("pop_detection_fpr", self.pop_detection_fpr,
      +[](R r) { return r.pop_detection_fpr; });
  }

  template <typename Self, typename F>
  static void visit_sketches(Self& self, F& f) {
    using R = const ExperimentResult&;
    f("pop_billing_error_dist", self.pop_billing_error,
      +[](R r) -> const QuantileSketch& { return r.pop_billing_error; });
    f("pop_billed_dist", self.pop_billed_seconds,
      +[](R r) -> const QuantileSketch& { return r.pop_billed_seconds; });
    f("pop_true_dist", self.pop_true_seconds,
      +[](R r) -> const QuantileSketch& { return r.pop_true_seconds; });
    f("pop_advantage_dist", self.pop_attacker_advantage,
      +[](R r) -> const QuantileSketch& { return r.pop_attacker_advantage; });
  }
};

/// Fired once per completed cell. `index` counts cells in grid order and
/// the callback observes strictly increasing indices regardless of which
/// worker finished the cell's last run — late cells are buffered until
/// every earlier cell has been handled, in this grid and in every grid
/// before it in the pool. A cell whose run threw is skipped (leaving a gap
/// in the indices); the pool still finishes and rethrows with that cell's
/// coordinates after the workers join. Cells excluded by
/// BatchGrid::cell_filter also leave gaps: `index` and `total` always
/// describe the full grid, not the filtered subset.
struct CellEvent {
  std::size_t index = 0;      // grid-order cell index
  std::size_t total = 0;      // cells in this grid
  double wall_seconds = 0.0;  // real compute time, summed over the cell's runs
  /// Normalized axis extents of the running grid, so consumers can tell a
  /// swept coordinate (extent > 1) from a constant one — e.g. progress
  /// lines print exactly the axes this grid opens.
  GridGeometry geometry;
  const CellStats& cell;
  /// Per-worker busy seconds so far this invocation (one slot per pool
  /// thread) — a stable snapshot: the callback runs under the emission
  /// lock, and workers update their slot under the same lock. Null when
  /// the runner has no live snapshot to offer.
  const std::vector<double>* worker_busy = nullptr;
  /// Wall seconds since this runner invocation started.
  double pool_elapsed_seconds = 0.0;
  std::size_t grid = 0;  // the cell's grid: its position in the pool
};

/// Per-cell completion hook; invoked serially (under the runner's emission
/// lock). A throwing callback is treated like a failed run: the pool
/// finishes and the exception is rethrown with the cell's coordinates.
using CellCallback = std::function<void(const CellEvent&)>;

/// Fired once per finished run, under the emission lock, after every cell
/// the run let through has been emitted.
struct RunEvent {
  std::size_t cells_emitted = 0;  // cells this run's completion emitted
  /// Per-worker busy seconds so far (one slot per pool thread).
  const std::vector<double>& worker_busy;
  double pool_elapsed_seconds = 0.0;  // wall seconds since the pool started
};

/// Per-run hook; a throwing callback fails the run's cell like a throwing
/// CellCallback does.
using RunCallback = std::function<void(const RunEvent&)>;

/// One grid's share of a pool invocation.
struct GridRun {
  std::vector<CellStats> cells;  // the admitted cells, in grid order
  /// Seconds after the pool started at which the grid's first run began
  /// and its last run ended (both 0 when it ran nothing). The spans of
  /// grids in one pool may overlap.
  double start_seconds = 0.0;
  double finish_seconds = 0.0;
  /// Each worker's seconds on this grid's runs (one slot per pool thread).
  std::vector<double> busy_seconds;
};

/// Derives the kernel seed for one run: a splitmix64 mix of the grid seed
/// with the cell coordinates, so the same grid seed decorrelates across
/// cells while staying reproducible and independent of scheduling order.
/// The scenario-axis indices fold in only when non-zero, so a grid that
/// leaves an axis at its default (index 0 everywhere) reproduces exactly
/// the seeds — and therefore the results — of a grid without the axis.
std::uint64_t cell_seed(std::uint64_t grid_seed, std::size_t attack_i,
                        std::size_t scheduler_i, std::size_t tick_i,
                        std::size_t cpu_i = 0, std::size_t ram_i = 0,
                        std::size_t ptrace_i = 0, std::size_t jiffy_i = 0,
                        std::size_t population_i = 0, std::size_t fraction_i = 0,
                        std::size_t nice_i = 0);

/// Convenience over decomposed cell indices (see GridGeometry::coords).
std::uint64_t cell_seed(std::uint64_t grid_seed, const GridCellIndices& ix);

class BatchRunner {
 public:
  /// `threads` == 0 picks std::thread::hardware_concurrency().
  explicit BatchRunner(unsigned threads = 0);

  unsigned threads() const { return threads_; }

  /// Runs every grid through one pool and returns one GridRun per grid,
  /// in the same order. Each GridRun holds one CellStats per admitted axis
  /// combination in attack-major grid order (all of them when
  /// `grid.cell_filter` is null). `on_cell`, when set, streams each
  /// admitted cell as soon as it and every earlier admitted cell — of its
  /// own grid and of every grid before it — are complete; grids therefore
  /// emit in span order, so callers pass them in cell_index order.
  /// `on_run`, when set, fires after every finished run. Without
  /// `keep_cells`, each cell is released once `on_cell` has seen it and the
  /// GridRuns carry timing only. If any experiment throws, the first
  /// exception (in grid order) is rethrown after all workers join, wrapped
  /// in a std::runtime_error naming the failing cell's coordinates (attack,
  /// scheduler, hz, seed).
  std::vector<GridRun> run(std::span<const BatchGrid> grids,
                           const CellCallback& on_cell = {},
                           const RunCallback& on_run = {},
                           bool keep_cells = true) const;

  /// One grid: the cells of run({&grid, 1}).
  std::vector<CellStats> run(const BatchGrid& grid,
                             const CellCallback& on_cell = {}) const;

 private:
  unsigned threads_;
};

}  // namespace mtr::core
