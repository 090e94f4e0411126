// BatchRunner coverage: grid shape/order, dimension defaulting, per-cell
// seed derivation, error propagation, the shared pool's claim and
// emission order, and — the load-bearing property — bit-identical
// aggregates regardless of thread count.
#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attacks/scheduling_attack.hpp"
#include "core/batch_runner.hpp"
#include "helpers.hpp"

namespace mtr::core {
namespace {

AttackFactory tiny_scheduling_attack() {
  return [] {
    attacks::SchedulingAttackParams p;
    p.nice = Nice{-20};
    p.total_forks = 1'000;
    return std::make_unique<attacks::SchedulingAttack>(p);
  };
}

/// 2 attacks x 2 schedulers x 1 hz x 2 seeds, on a sub-second workload.
BatchGrid small_grid() {
  BatchGrid g;
  g.base = test::quick_experiment(workloads::WorkloadKind::kOurs);
  g.attacks.push_back({"baseline", nullptr});
  g.attacks.push_back({"scheduling", tiny_scheduling_attack()});
  g.schedulers = {sim::SchedulerKind::kO1, sim::SchedulerKind::kCfs};
  g.seeds = {7, 8};
  return g;
}

TEST(CellSeed, DeterministicAndDecorrelated) {
  EXPECT_EQ(cell_seed(42, 0, 0, 0), cell_seed(42, 0, 0, 0));
  EXPECT_NE(cell_seed(42, 0, 0, 0), cell_seed(43, 0, 0, 0));
  EXPECT_NE(cell_seed(42, 0, 0, 0), cell_seed(42, 1, 0, 0));
  EXPECT_NE(cell_seed(42, 0, 0, 0), cell_seed(42, 0, 1, 0));
  EXPECT_NE(cell_seed(42, 0, 0, 0), cell_seed(42, 0, 0, 1));
}

TEST(CellSeed, UnusedScenarioAxesDoNotPerturbSeeds) {
  // Axis index 0 (the base value of an unused axis) must leave the seed
  // stream exactly as it was before the axis existed — per axis and for
  // any combination of zeros.
  for (std::uint64_t grid_seed : {7ull, 42ull, 12345ull}) {
    for (std::size_t a = 0; a < 3; ++a)
      for (std::size_t s = 0; s < 2; ++s)
        for (std::size_t t = 0; t < 2; ++t) {
          const std::uint64_t legacy = cell_seed(grid_seed, a, s, t);
          EXPECT_EQ(legacy, cell_seed(grid_seed, a, s, t, 0, 0, 0, 0));
          EXPECT_EQ(legacy, cell_seed(grid_seed, GridCellIndices{a, s, t}));
        }
  }
  // Each scenario axis decorrelates when actually swept, each differently.
  const std::uint64_t base = cell_seed(42, 1, 1, 1);
  const std::uint64_t cpu = cell_seed(42, 1, 1, 1, 1, 0, 0, 0);
  const std::uint64_t ram = cell_seed(42, 1, 1, 1, 0, 1, 0, 0);
  const std::uint64_t ptr = cell_seed(42, 1, 1, 1, 0, 0, 1, 0);
  const std::uint64_t jfy = cell_seed(42, 1, 1, 1, 0, 0, 0, 1);
  EXPECT_NE(base, cpu);
  EXPECT_NE(base, ram);
  EXPECT_NE(base, ptr);
  EXPECT_NE(base, jfy);
  EXPECT_NE(cpu, ram);
  EXPECT_NE(cpu, ptr);
  EXPECT_NE(cpu, jfy);
  EXPECT_NE(ram, ptr);
  EXPECT_NE(ram, jfy);
  EXPECT_NE(ptr, jfy);
}

TEST(BatchRunner, EmptyDimensionsDefaultToBase) {
  BatchGrid g;
  g.base = test::quick_experiment(workloads::WorkloadKind::kOurs);
  const auto cells = BatchRunner(1).run(g);
  ASSERT_EQ(cells.size(), 1u);
  const CellStats& c = cells.front();
  EXPECT_EQ(c.attack_label, "baseline");
  EXPECT_EQ(c.scheduler, g.base.sim.scheduler);
  EXPECT_EQ(c.hz, g.base.sim.kernel.hz);
  ASSERT_EQ(c.runs.size(), 1u);
  EXPECT_TRUE(c.first_run().victim_exited);
  EXPECT_EQ(c.overcharge.count(), 1u);
}

TEST(BatchRunner, GridOrderIsAttackMajor) {
  const auto cells = BatchRunner(2).run(small_grid());
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].attack_label, "baseline");
  EXPECT_EQ(cells[0].scheduler, sim::SchedulerKind::kO1);
  EXPECT_EQ(cells[1].attack_label, "baseline");
  EXPECT_EQ(cells[1].scheduler, sim::SchedulerKind::kCfs);
  EXPECT_EQ(cells[2].attack_label, "scheduling");
  EXPECT_EQ(cells[2].scheduler, sim::SchedulerKind::kO1);
  EXPECT_EQ(cells[3].attack_label, "scheduling");
  EXPECT_EQ(cells[3].scheduler, sim::SchedulerKind::kCfs);
  for (const CellStats& c : cells) {
    ASSERT_EQ(c.runs.size(), 2u);
    EXPECT_EQ(c.overcharge.count(), 2u);
    EXPECT_TRUE(c.first_run().victim_exited);
  }
  // The attack rows actually ran their attacker.
  EXPECT_TRUE(cells[2].first_run().has_attacker);
  EXPECT_TRUE(cells[3].first_run().has_attacker);
  EXPECT_FALSE(cells[0].first_run().has_attacker);
}

TEST(BatchRunner, IdenticalAggregatesAcrossThreadCounts) {
  const BatchGrid g = small_grid();
  const auto one = BatchRunner(1).run(g);
  const auto eight = BatchRunner(8).run(g);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    const CellStats& a = one[i];
    const CellStats& b = eight[i];
    EXPECT_EQ(a.attack_label, b.attack_label);
    EXPECT_EQ(a.scheduler, b.scheduler);
    EXPECT_EQ(a.hz, b.hz);
    // Exact equality: the per-run results and the aggregation order are
    // both independent of the worker pool.
    EXPECT_EQ(a.overcharge.mean(), b.overcharge.mean());
    EXPECT_EQ(a.overcharge.stddev(), b.overcharge.stddev());
    EXPECT_EQ(a.billed_seconds.sum(), b.billed_seconds.sum());
    EXPECT_EQ(a.true_seconds.sum(), b.true_seconds.sum());
    EXPECT_EQ(a.tsc_seconds.sum(), b.tsc_seconds.sum());
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t j = 0; j < a.runs.size(); ++j) {
      EXPECT_EQ(a.runs[j].billed_ticks.total().v, b.runs[j].billed_ticks.total().v);
      EXPECT_EQ(a.runs[j].true_cycles.total().v, b.runs[j].true_cycles.total().v);
      EXPECT_EQ(a.runs[j].overcharge, b.runs[j].overcharge);
      EXPECT_EQ(a.runs[j].witness_steps, b.runs[j].witness_steps);
    }
  }
}

TEST(BatchRunner, SeedsChangeResultsAcrossCells) {
  // The same grid seed must not replay the identical simulation in every
  // cell: cell_seed mixes the coordinates in.
  BatchGrid g;
  g.base = test::quick_experiment(workloads::WorkloadKind::kOurs);
  g.attacks.push_back({"scheduling", tiny_scheduling_attack()});
  g.schedulers = {sim::SchedulerKind::kO1, sim::SchedulerKind::kCfs};
  const auto cells = BatchRunner(2).run(g);
  ASSERT_EQ(cells.size(), 2u);
  // Different scheduler + different derived seed: true cycle counts differ.
  EXPECT_NE(cells[0].first_run().true_cycles.total().v,
            cells[1].first_run().true_cycles.total().v);
}

TEST(BatchRunner, GridGeometryHelpersMatchRunOrder) {
  const BatchGrid g = small_grid();
  EXPECT_EQ(grid_cell_count(g), 4u);
  const auto cells = BatchRunner(2).run(g);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GridCellCoords c = grid_cell_coords(g, i);
    EXPECT_EQ(c.attack_label, cells[i].attack_label);
    EXPECT_EQ(c.scheduler, cells[i].scheduler);
    EXPECT_EQ(c.hz, cells[i].hz);
  }
  // Empty dimensions default exactly like normalized_grid.
  BatchGrid empty;
  empty.base = test::quick_experiment(workloads::WorkloadKind::kOurs);
  EXPECT_EQ(grid_cell_count(empty), 1u);
  EXPECT_EQ(grid_cell_coords(empty, 0).attack_label, "baseline");
  EXPECT_EQ(grid_cell_coords(empty, 0).scheduler, empty.base.sim.scheduler);
  EXPECT_EQ(grid_cell_coords(empty, 0).cpu, empty.base.sim.kernel.cpu);
  EXPECT_EQ(grid_cell_coords(empty, 0).ram,
            (RamSpec{empty.base.sim.kernel.ram_frames,
                     empty.base.sim.kernel.reclaim_batch}));
  EXPECT_EQ(grid_cell_coords(empty, 0).ptrace, empty.base.sim.kernel.ptrace_policy);
  EXPECT_EQ(grid_cell_coords(empty, 0).jiffy_timers,
            empty.base.sim.kernel.jiffy_resolution_timers);
}

TEST(BatchRunner, RawAndNormalizedGridsShareOneGeometry) {
  // The old geometry helpers re-implemented empty-axis fallbacks; a
  // cell_filter built against a raw (non-normalized) grid must see exactly
  // the numbering BatchRunner::run derives after normalization.
  BatchGrid raw;
  raw.base = test::quick_experiment(workloads::WorkloadKind::kOurs);
  raw.base.sim.kernel.ptrace_policy = kernel::PtracePolicy::kPrivilegedOnly;
  raw.attacks.push_back({"baseline", nullptr});
  raw.attacks.push_back({"scheduling", tiny_scheduling_attack()});
  raw.ticks = {TimerHz{100}, TimerHz{250}};
  raw.jiffy_timers = {true, false};
  // schedulers / cpu / ram / ptrace axes left empty on purpose.
  const BatchGrid norm = normalized_grid(raw);

  ASSERT_EQ(grid_cell_count(raw), grid_cell_count(norm));
  ASSERT_EQ(grid_cell_count(raw), 8u);  // 2 attacks x 2 ticks x 2 jiffy
  for (std::size_t i = 0; i < 8; ++i) {
    const GridCellCoords a = grid_cell_coords(raw, i);
    const GridCellCoords b = grid_cell_coords(norm, i);
    EXPECT_EQ(a.attack_label, b.attack_label) << i;
    EXPECT_EQ(a.scheduler, b.scheduler) << i;
    EXPECT_EQ(a.hz, b.hz) << i;
    EXPECT_EQ(a.cpu, b.cpu) << i;
    EXPECT_EQ(a.ram, b.ram) << i;
    EXPECT_EQ(a.ptrace, b.ptrace) << i;
    EXPECT_EQ(a.jiffy_timers, b.jiffy_timers) << i;
    // Non-swept axes pull their value from base, not the global defaults.
    EXPECT_EQ(a.ptrace, kernel::PtracePolicy::kPrivilegedOnly) << i;
  }

  // GridGeometry::coords round-trips the axis-major flattening.
  const GridGeometry geom = grid_geometry(raw);
  EXPECT_EQ(geom.cell_count(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    const GridCellIndices ix = geom.coords(i);
    const std::size_t flat =
        ((((((ix.attack * geom.schedulers + ix.scheduler) * geom.ticks +
             ix.tick) * geom.cpus + ix.cpu) * geom.rams + ix.ram) *
          geom.ptraces + ix.ptrace) * geom.jiffies) + ix.jiffy;
    EXPECT_EQ(flat, i);
  }
}

TEST(BatchRunner, CellFilterRunsSubsetWithFullGridIdentity) {
  BatchGrid g = small_grid();
  g.cell_index_base = 100;
  const auto all = BatchRunner(2).run(g);
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 0; i < all.size(); ++i)
    EXPECT_EQ(all[i].cell_index, 100 + i);

  // A shard-like filter (odd cells only): the surviving cells must be
  // byte-for-byte the same as their full-run counterparts.
  g.cell_filter = [](std::size_t cell) { return cell % 2 == 1; };
  std::vector<std::size_t> emitted;
  const auto odd = BatchRunner(2).run(g, [&](const CellEvent& ev) {
    EXPECT_EQ(ev.total, 4u);  // index/total describe the full grid
    emitted.push_back(ev.index);
  });
  ASSERT_EQ(odd.size(), 2u);
  EXPECT_EQ(emitted, (std::vector<std::size_t>{1, 3}));
  for (std::size_t i = 0; i < odd.size(); ++i) {
    const CellStats& a = all[2 * i + 1];
    const CellStats& b = odd[i];
    EXPECT_EQ(a.attack_label, b.attack_label);
    EXPECT_EQ(a.scheduler, b.scheduler);
    EXPECT_EQ(a.cell_index, b.cell_index);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t j = 0; j < a.runs.size(); ++j) {
      EXPECT_EQ(a.runs[j].billed_ticks.total().v, b.runs[j].billed_ticks.total().v);
      EXPECT_EQ(a.runs[j].true_cycles.total().v, b.runs[j].true_cycles.total().v);
      EXPECT_EQ(a.runs[j].overcharge, b.runs[j].overcharge);
    }
  }

  // Filtering everything out runs nothing and returns nothing.
  g.cell_filter = [](std::size_t) { return false; };
  EXPECT_TRUE(BatchRunner(2).run(g).empty());
}

TEST(BatchRunner, SingleValueDefaultAxesChangeNothing) {
  // A grid that spells out the scenario axes with one base-valued entry
  // each must reproduce the no-axes grid exactly: same geometry, same
  // seeds, same per-run results. This is what keeps pre-axes artifacts
  // byte-identical.
  BatchGrid plain = small_grid();
  BatchGrid spelled = small_grid();
  const kernel::KernelConfig& k = spelled.base.sim.kernel;
  spelled.cpu_freqs = {k.cpu};
  spelled.ram = {{k.ram_frames, k.reclaim_batch}};
  spelled.ptrace_policies = {k.ptrace_policy};
  spelled.jiffy_timers = {k.jiffy_resolution_timers};

  EXPECT_EQ(grid_cell_count(plain), grid_cell_count(spelled));
  const auto a = BatchRunner(2).run(plain);
  const auto b = BatchRunner(2).run(spelled);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].attack_label, b[i].attack_label);
    EXPECT_EQ(a[i].cell_index, b[i].cell_index);
    ASSERT_EQ(a[i].runs.size(), b[i].runs.size());
    for (std::size_t j = 0; j < a[i].runs.size(); ++j) {
      EXPECT_EQ(a[i].runs[j].true_cycles.total().v, b[i].runs[j].true_cycles.total().v);
      EXPECT_EQ(a[i].runs[j].billed_ticks.total().v, b[i].runs[j].billed_ticks.total().v);
      EXPECT_EQ(a[i].runs[j].overcharge, b[i].runs[j].overcharge);
      EXPECT_EQ(a[i].runs[j].witness_steps, b[i].runs[j].witness_steps);
    }
  }
}

TEST(BatchRunner, ScenarioAxesAreSweptAndStamped) {
  BatchGrid g;
  g.base = test::quick_experiment(workloads::WorkloadKind::kOurs);
  g.attacks.push_back({"baseline", nullptr});
  g.cpu_freqs = {CpuHz{2'530'000'000}, CpuHz{1'000'000'000}};
  g.jiffy_timers = {true, false};
  const auto cells = BatchRunner(2).run(g);
  ASSERT_EQ(cells.size(), 4u);  // cpu-major over jiffy (jiffy is minor)
  EXPECT_EQ(cells[0].cpu.v, 2'530'000'000u);
  EXPECT_TRUE(cells[0].jiffy_timers);
  EXPECT_EQ(cells[1].cpu.v, 2'530'000'000u);
  EXPECT_FALSE(cells[1].jiffy_timers);
  EXPECT_EQ(cells[2].cpu.v, 1'000'000'000u);
  EXPECT_TRUE(cells[2].jiffy_timers);
  EXPECT_EQ(cells[3].cpu.v, 1'000'000'000u);
  EXPECT_FALSE(cells[3].jiffy_timers);
  for (const CellStats& c : cells) {
    ASSERT_EQ(c.runs.size(), 1u);
    EXPECT_TRUE(c.first_run().victim_exited);
    // Non-swept scenario axes are stamped with the base values.
    EXPECT_EQ(c.ram, (RamSpec{g.base.sim.kernel.ram_frames,
                              g.base.sim.kernel.reclaim_batch}));
    EXPECT_EQ(c.ptrace, g.base.sim.kernel.ptrace_policy);
  }
  // The CPU-frequency axis actually reached the kernel config: identical
  // compute takes the same cycles but maps to different seconds.
  EXPECT_GT(cells[2].wall_seconds.mean(), cells[0].wall_seconds.mean());
  // Geometry helpers agree with the run, scenario axes included.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const GridCellCoords c = grid_cell_coords(g, i);
    EXPECT_EQ(c.cpu, cells[i].cpu);
    EXPECT_EQ(c.jiffy_timers, cells[i].jiffy_timers);
  }
}

TEST(BatchRunner, WorkerExceptionPropagates) {
  BatchGrid g;
  g.base = test::quick_experiment(workloads::WorkloadKind::kOurs);
  g.attacks.push_back({"broken", []() -> std::unique_ptr<attacks::Attack> {
                         throw std::runtime_error("factory exploded");
                       }});
  EXPECT_THROW(BatchRunner(2).run(g), std::runtime_error);
}

TEST(BatchRunner, ExceptionNamesFailingCellCoordinates) {
  BatchGrid g;
  g.base = test::quick_experiment(workloads::WorkloadKind::kOurs);
  g.attacks.push_back({"baseline", nullptr});
  g.attacks.push_back({"broken", []() -> std::unique_ptr<attacks::Attack> {
                         throw std::runtime_error("factory exploded");
                       }});
  g.schedulers = {sim::SchedulerKind::kCfs};
  g.ticks = {TimerHz{1000}};
  g.seeds = {77};
  try {
    BatchRunner(4).run(g);
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("attack=broken"), std::string::npos) << what;
    EXPECT_NE(what.find("scheduler=cfs"), std::string::npos) << what;
    EXPECT_NE(what.find("hz=1000"), std::string::npos) << what;
    EXPECT_NE(what.find("seed=77"), std::string::npos) << what;
    EXPECT_NE(what.find("factory exploded"), std::string::npos) << what;
  }
}

TEST(BatchRunner, CallbackFiresOncePerCellInGridOrder) {
  const BatchGrid g = small_grid();
  for (const unsigned threads : {1u, 8u}) {
    std::vector<std::size_t> indices;
    std::vector<std::string> labels;
    std::vector<double> means;
    const auto cells = BatchRunner(threads).run(g, [&](const CellEvent& ev) {
      EXPECT_EQ(ev.total, 4u);
      EXPECT_GE(ev.wall_seconds, 0.0);
      indices.push_back(ev.index);
      labels.push_back(ev.cell.attack_label);
      means.push_back(ev.cell.overcharge.mean());
    });
    // Strictly ascending 0..n-1 regardless of the worker pool: late cells
    // are buffered until every earlier cell has been emitted.
    ASSERT_EQ(indices.size(), cells.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ(indices[i], i);
      EXPECT_EQ(labels[i], cells[i].attack_label);
      // The callback saw the fully aggregated cell, not a partial one.
      EXPECT_EQ(means[i], cells[i].overcharge.mean());
      EXPECT_EQ(cells[i].runs.size(), g.seeds.size());
    }
  }
}

TEST(BatchRunner, CallbackExceptionIsWrappedWithCoordinates) {
  const BatchGrid g = small_grid();
  try {
    BatchRunner(2).run(g, [](const CellEvent&) {
      throw std::runtime_error("sink full");
    });
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sink full"), std::string::npos) << what;
    EXPECT_NE(what.find("BatchRunner cell"), std::string::npos) << what;
    // The runs all succeeded; the message must blame the callback, not a
    // seed.
    EXPECT_NE(what.find("per-cell callback"), std::string::npos) << what;
    EXPECT_EQ(what.find("seed="), std::string::npos) << what;
  }
}

TEST(BatchRunner, ObservabilityCollectionLeavesAggregatesIdentical) {
  const BatchGrid plain = small_grid();
  BatchGrid observed = small_grid();
  observed.collect_kernel_stats = true;

  const auto baseline = BatchRunner(2).run(plain);
  const std::vector<GridRun> pool = BatchRunner(2).run(std::span(&observed, 1));
  ASSERT_EQ(pool.size(), 1u);
  const std::vector<CellStats>& traced = pool[0].cells;

  // Kernel counters aggregate per cell without touching the results.
  ASSERT_EQ(traced.size(), baseline.size());
  for (std::size_t i = 0; i < traced.size(); ++i) {
    EXPECT_EQ(traced[i].overcharge.mean(), baseline[i].overcharge.mean());
    EXPECT_EQ(traced[i].billed_seconds.sum(), baseline[i].billed_seconds.sum());
    EXPECT_GT(traced[i].kstats.timer_ticks, 0u);
    EXPECT_GT(traced[i].kstats.charge_flushes, 0u);
    EXPECT_EQ(baseline[i].kstats.timer_ticks, 0u);  // off by default
  }

  // The grid's timing covers its runs: both workers exist, its span
  // advanced, and no busy slot exceeds it.
  const double span = pool[0].finish_seconds - pool[0].start_seconds;
  EXPECT_GE(pool[0].start_seconds, 0.0);
  EXPECT_GT(span, 0.0);
  ASSERT_EQ(pool[0].busy_seconds.size(), 2u);
  for (const double busy : pool[0].busy_seconds) {
    EXPECT_GE(busy, 0.0);
    EXPECT_LE(busy, span * 1.05);
  }
}

// --- one pool, many grids ---------------------------------------------------

/// Blocks until `parties` threads have arrived, or throws after a bound so
/// a schedule that can never fill it fails instead of hanging.
class BoundedBarrier {
 public:
  explicit BoundedBarrier(std::size_t parties) : parties_(parties) {}

  void arrive_and_wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ >= parties_) cv_.notify_all();
    if (!cv_.wait_for(lock, std::chrono::seconds(30),
                      [&] { return arrived_ >= parties_; }))
      throw std::runtime_error("bounded wait expired");
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t parties_;
  std::size_t arrived_ = 0;
};

/// A factory that runs `hook` and then the baseline: the runner counts it
/// as an attacked run, but the run costs what a baseline does.
AttackFactory hooked(std::function<void()> hook) {
  return [hook = std::move(hook)]() -> std::unique_ptr<attacks::Attack> {
    hook();
    return nullptr;
  };
}

/// One seed, one cell per attack; cells numbered from `base`.
BatchGrid grid_of(std::vector<AttackSpec> attacks, std::size_t base) {
  BatchGrid g;
  g.base = test::quick_experiment(workloads::WorkloadKind::kOurs);
  g.attacks = std::move(attacks);
  g.seeds = {7};
  g.cell_index_base = base;
  return g;
}

TEST(BatchRunnerPool, LaterGridsRunWithoutWaitingAtABarrier) {
  // Grid 0's only run can finish only once grid 1's run has started. One
  // pool over both grids lets it; a barrier after each grid would leave
  // grid 0 waiting alone until the bound expires and its run fails.
  BoundedBarrier both(2);
  const std::vector<BatchGrid> grids = {
      grid_of({{"waits", hooked([&] { both.arrive_and_wait(); })}}, 0),
      grid_of({{"releases", hooked([&] { both.arrive_and_wait(); })}}, 1)};
  const std::vector<GridRun> runs = BatchRunner(2).run(grids);
  ASSERT_EQ(runs.size(), 2u);
  ASSERT_EQ(runs[0].cells.size(), 1u);
  ASSERT_EQ(runs[1].cells.size(), 1u);
  EXPECT_EQ(runs[0].cells[0].cell_index, 0u);
  EXPECT_EQ(runs[1].cells[0].cell_index, 1u);
}

TEST(BatchRunnerPool, CellsEmitInCellIndexOrderWhenLaterGridsFinishFirst) {
  // Grid 0's run holds until both of grid 1's runs have finished, so grid
  // 1 completes first; its cells must still wait behind grid 0's.
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t finished = 0;
  const std::vector<BatchGrid> grids = {
      grid_of({{"slow", hooked([&] {
                  std::unique_lock<std::mutex> lock(mutex);
                  if (!cv.wait_for(lock, std::chrono::seconds(30),
                                   [&] { return finished >= 2; }))
                    throw std::runtime_error("grid 1 never finished");
                })}},
              0),
      grid_of({{"a", hooked([] {})}, {"b", hooked([] {})}}, 1)};

  std::vector<std::pair<std::size_t, std::uint64_t>> emitted;  // grid, cell_index
  std::vector<std::size_t> per_run;
  const std::vector<GridRun> runs = BatchRunner(2).run(
      grids,
      [&](const CellEvent& ev) { emitted.emplace_back(ev.grid, ev.cell.cell_index); },
      [&](const RunEvent& ev) {
        per_run.push_back(ev.cells_emitted);
        EXPECT_EQ(ev.worker_busy.size(), 2u);
        const std::lock_guard<std::mutex> lock(mutex);
        ++finished;
        cv.notify_all();
      });
  using Emitted = std::pair<std::size_t, std::uint64_t>;
  EXPECT_EQ(emitted, (std::vector<Emitted>{{0, 0}, {1, 1}, {1, 2}}));
  // Grid 1's runs emitted nothing; grid 0's run let all three cells out.
  EXPECT_EQ(per_run, (std::vector<std::size_t>{0, 0, 3}));
  EXPECT_LT(runs[1].finish_seconds, runs[0].finish_seconds);
  for (const GridRun& r : runs) EXPECT_LE(r.start_seconds, r.finish_seconds);
}

TEST(BatchRunnerPool, AttackedRunsAreClaimedFirstOnAWidePoolAndInGridOrderOnOne) {
  for (const unsigned threads : {4u, 1u}) {
    SCOPED_TRACE(threads);
    // The attacked runs meet at a barrier as wide as the pool, so on four
    // workers none can move on to a baseline run before every attacked
    // run has been claimed. Claims are logged through trace_path, which a
    // worker calls right after claiming a run.
    BoundedBarrier attacked(threads);
    std::mutex mutex;
    std::vector<std::string> claims;
    const auto log = [&](const char* tag) {
      return [&, tag](std::size_t cell, std::size_t) {
        const std::lock_guard<std::mutex> lock(mutex);
        // Append, not `tag + ...`: GCC 12 -Wrestrict false-positives on
        // the operator+ chain.
        std::string claim = tag;
        claim += std::to_string(cell);
        claims.push_back(std::move(claim));
        return std::string();
      };
    };
    std::vector<BatchGrid> grids = {
        grid_of({{"b0", nullptr}, {"b1", nullptr}, {"b2", nullptr}, {"b3", nullptr}}, 0),
        grid_of({{"a0", nullptr}}, 4)};
    for (const char* label : {"a1", "a2", "a3"})
      grids[1].attacks.push_back({label, nullptr});
    for (AttackSpec& a : grids[1].attacks)
      a.make = hooked([&] { attacked.arrive_and_wait(); });
    grids[0].trace_path = log("base");
    grids[1].trace_path = log("attack");

    const std::vector<GridRun> runs = BatchRunner(threads).run(grids);
    ASSERT_EQ(runs[1].cells.size(), 4u);
    ASSERT_EQ(claims.size(), 8u);
    if (threads == 1) {
      EXPECT_EQ(claims, (std::vector<std::string>{"base0", "base1", "base2", "base3",
                                                  "attack0", "attack1", "attack2",
                                                  "attack3"}));
    } else {
      for (std::size_t i = 0; i < 8; ++i)
        EXPECT_EQ(claims[i].rfind(i < 4 ? "attack" : "base", 0), 0u) << claims[i];
    }
  }
}

TEST(BatchRunnerPool, AFailedRunInALaterGridKeepsEarlierCellsAndIsNamed) {
  std::vector<std::uint64_t> emitted;
  const std::vector<BatchGrid> grids = {
      grid_of({{"fine", nullptr}}, 0),
      grid_of({{"broken", hooked([] { throw std::runtime_error("factory exploded"); })}},
              1)};
  try {
    BatchRunner(2).run(grids, [&](const CellEvent& ev) {
      emitted.push_back(ev.cell.cell_index);
    });
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("attack=broken"), std::string::npos) << what;
    EXPECT_NE(what.find("seed=7"), std::string::npos) << what;
    EXPECT_NE(what.find("factory exploded"), std::string::npos) << what;
  }
  EXPECT_EQ(emitted, (std::vector<std::uint64_t>{0}));
}

TEST(BatchRunnerPool, AThrowingRunCallbackFailsItsCellWithoutBlamingASeed) {
  const BatchGrid g = grid_of({{"a", nullptr}}, 0);
  try {
    BatchRunner(1).run(std::span(&g, 1), {}, [](const RunEvent&) {
      throw std::runtime_error("heartbeat disk full");
    });
    FAIL() << "expected a runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("per-run callback"), std::string::npos) << what;
    EXPECT_NE(what.find("heartbeat disk full"), std::string::npos) << what;
    EXPECT_EQ(what.find("seed="), std::string::npos) << what;
  }
}

TEST(BatchRunnerPool, DroppedCellsStillStreamButAreNotReturned) {
  const BatchGrid g = small_grid();
  std::size_t seen = 0;
  const std::vector<GridRun> runs = BatchRunner(2).run(
      std::span(&g, 1),
      [&](const CellEvent& ev) {
        EXPECT_EQ(ev.cell.runs.size(), g.seeds.size());
        ++seen;
      },
      {}, /*keep_cells=*/false);
  EXPECT_EQ(seen, 4u);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].cells.empty());
  EXPECT_GT(runs[0].finish_seconds, 0.0);
}

}  // namespace
}  // namespace mtr::core
