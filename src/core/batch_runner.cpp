#include "core/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <thread>

#include "common/ensure.hpp"

namespace mtr::core {
namespace {

constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// The value a (possibly empty) axis takes at index `i`: normalization in
/// one place, shared by grid_cell_coords and the runner (which sees axes
/// pre-filled by normalized_grid, making this the identity).
template <typename T>
const T& axis_value(const std::vector<T>& axis, std::size_t i, const T& base) {
  return axis.empty() ? base : axis[i];
}

bool axis_value(const std::vector<bool>& axis, std::size_t i, bool base) {
  return axis.empty() ? base : axis[i];
}

}  // namespace

BatchGrid normalized_grid(const BatchGrid& grid) {
  BatchGrid g = grid;
  const kernel::KernelConfig& k = g.base.sim.kernel;
  if (g.attacks.empty()) g.attacks.push_back({"baseline", nullptr});
  if (g.schedulers.empty()) g.schedulers.push_back(g.base.sim.scheduler);
  if (g.ticks.empty()) g.ticks.push_back(k.hz);
  if (g.cpu_freqs.empty()) g.cpu_freqs.push_back(k.cpu);
  if (g.ram.empty()) g.ram.push_back({k.ram_frames, k.reclaim_batch});
  if (g.ptrace_policies.empty()) g.ptrace_policies.push_back(k.ptrace_policy);
  if (g.jiffy_timers.empty()) g.jiffy_timers.push_back(k.jiffy_resolution_timers);
  if (g.population_sizes.empty()) g.population_sizes.push_back(g.base.population.size);
  if (g.attacker_fractions.empty())
    g.attacker_fractions.push_back(g.base.population.attacker_fraction);
  if (g.nice_levels.empty()) g.nice_levels.push_back(g.base.nice);
  if (g.seeds.empty()) g.seeds.push_back(k.seed);
  return g;
}

GridCellIndices GridGeometry::coords(std::size_t cell) const {
  GridCellIndices ix;
  ix.nice = cell % nices;
  cell /= nices;
  ix.fraction = cell % fractions;
  cell /= fractions;
  ix.population = cell % populations;
  cell /= populations;
  ix.jiffy = cell % jiffies;
  cell /= jiffies;
  ix.ptrace = cell % ptraces;
  cell /= ptraces;
  ix.ram = cell % rams;
  cell /= rams;
  ix.cpu = cell % cpus;
  cell /= cpus;
  ix.tick = cell % ticks;
  cell /= ticks;
  ix.scheduler = cell % schedulers;
  ix.attack = cell / schedulers;
  return ix;
}

GridGeometry grid_geometry(const BatchGrid& grid) {
  const auto extent = [](std::size_t n) { return n > 0 ? n : std::size_t{1}; };
  GridGeometry g;
  g.attacks = extent(grid.attacks.size());
  g.schedulers = extent(grid.schedulers.size());
  g.ticks = extent(grid.ticks.size());
  g.cpus = extent(grid.cpu_freqs.size());
  g.rams = extent(grid.ram.size());
  g.ptraces = extent(grid.ptrace_policies.size());
  g.jiffies = extent(grid.jiffy_timers.size());
  g.populations = extent(grid.population_sizes.size());
  g.fractions = extent(grid.attacker_fractions.size());
  g.nices = extent(grid.nice_levels.size());
  return g;
}

std::size_t grid_cell_count(const BatchGrid& grid) {
  return grid_geometry(grid).cell_count();
}

GridCellCoords grid_cell_coords(const BatchGrid& grid, std::size_t cell) {
  const GridCellIndices ix = grid_geometry(grid).coords(cell);
  const kernel::KernelConfig& k = grid.base.sim.kernel;
  GridCellCoords c;
  c.attack_label =
      grid.attacks.empty() ? "baseline" : grid.attacks[ix.attack].label;
  c.scheduler = axis_value(grid.schedulers, ix.scheduler, grid.base.sim.scheduler);
  c.hz = axis_value(grid.ticks, ix.tick, k.hz);
  c.cpu = axis_value(grid.cpu_freqs, ix.cpu, k.cpu);
  c.ram = axis_value(grid.ram, ix.ram, RamSpec{k.ram_frames, k.reclaim_batch});
  c.ptrace = axis_value(grid.ptrace_policies, ix.ptrace, k.ptrace_policy);
  c.jiffy_timers = axis_value(grid.jiffy_timers, ix.jiffy, k.jiffy_resolution_timers);
  c.population =
      axis_value(grid.population_sizes, ix.population, grid.base.population.size);
  c.attacker_fraction = axis_value(grid.attacker_fractions, ix.fraction,
                                   grid.base.population.attacker_fraction);
  c.nice = axis_value(grid.nice_levels, ix.nice, grid.base.nice);
  return c;
}

bool CellStats::all_source_ok() const {
  for (const ExperimentResult& r : runs)
    if (!r.source_verdict.ok) return false;
  return true;
}

std::uint64_t cell_seed(std::uint64_t grid_seed, std::size_t attack_i,
                        std::size_t scheduler_i, std::size_t tick_i,
                        std::size_t cpu_i, std::size_t ram_i,
                        std::size_t ptrace_i, std::size_t jiffy_i,
                        std::size_t population_i, std::size_t fraction_i,
                        std::size_t nice_i) {
  std::uint64_t h = splitmix64(grid_seed);
  h = splitmix64(h ^ (static_cast<std::uint64_t>(attack_i) + 1));
  h = splitmix64(h ^ ((static_cast<std::uint64_t>(scheduler_i) + 1) << 20));
  h = splitmix64(h ^ ((static_cast<std::uint64_t>(tick_i) + 1) << 40));
  // Scenario axes mix in only off their base index so unused axes leave
  // the seed stream exactly as it was before the axis existed. Distinct
  // odd multipliers keep the axes decorrelated from one another.
  if (cpu_i) h = splitmix64(h ^ (cpu_i * 0xA24BAED4963EE407ull));
  if (ram_i) h = splitmix64(h ^ (ram_i * 0x9FB21C651E98DF25ull));
  if (ptrace_i) h = splitmix64(h ^ (ptrace_i * 0xD6E8FEB86659FD93ull));
  if (jiffy_i) h = splitmix64(h ^ (jiffy_i * 0xCA5A826395121157ull));
  if (population_i) h = splitmix64(h ^ (population_i * 0xE7037ED1A0B428DBull));
  if (fraction_i) h = splitmix64(h ^ (fraction_i * 0x8EBC6AF09C88C6E3ull));
  if (nice_i) h = splitmix64(h ^ (nice_i * 0x589965CC75374CC3ull));
  return h;
}

std::uint64_t cell_seed(std::uint64_t grid_seed, const GridCellIndices& ix) {
  return cell_seed(grid_seed, ix.attack, ix.scheduler, ix.tick, ix.cpu, ix.ram,
                   ix.ptrace, ix.jiffy, ix.population, ix.fraction, ix.nice);
}

BatchRunner::BatchRunner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) threads_ = std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;
}

namespace {

/// One grid of a pool invocation, laid out for the workers: its
/// normalized axes, the cells that run, and where its runs and cells start
/// in the pool's flat numbering (grid-major, then cell, then seed).
struct GridLayout {
  BatchGrid g;
  GridGeometry geom;
  std::size_t n_cells = 0;           // full grid
  std::size_t n_seeds = 0;
  std::vector<std::size_t> active;   // grid-order indices of admitted cells
  std::size_t first_run = 0;
  std::size_t first_cell = 0;
};

/// The failing run's coordinates. Scenario axes are named only when
/// actually swept — default-axis grids keep the short form.
std::string describe_failure(const GridLayout& L, std::size_t pos,
                             std::size_t seed_i, const char* callback) {
  const BatchGrid& g = L.g;
  const GridGeometry& geom = L.geom;
  const GridCellIndices ix = geom.coords(L.active[pos]);
  std::string where =
      std::string("BatchRunner cell [attack=") + g.attacks[ix.attack].label +
      ", scheduler=" + sim::to_string(g.schedulers[ix.scheduler]) +
      ", hz=" + std::to_string(g.ticks[ix.tick].v);
  if (geom.cpus > 1) where += ", cpu_hz=" + std::to_string(g.cpu_freqs[ix.cpu].v);
  if (geom.rams > 1)
    where += ", ram_frames=" + std::to_string(g.ram[ix.ram].frames) +
             ", reclaim_batch=" + std::to_string(g.ram[ix.ram].reclaim_batch);
  if (geom.ptraces > 1)
    where += std::string(", ptrace=") + kernel::to_string(g.ptrace_policies[ix.ptrace]);
  if (geom.jiffies > 1)
    where += std::string(", jiffy_timers=") + (g.jiffy_timers[ix.jiffy] ? "on" : "off");
  if (geom.populations > 1)
    where += ", population=" + std::to_string(g.population_sizes[ix.population]);
  if (geom.fractions > 1)
    where += ", attacker_fraction=" +
             std::to_string(g.attacker_fractions[ix.fraction]);
  if (geom.nices > 1)
    where += ", victim_nice=" +
             std::to_string(static_cast<int>(g.nice_levels[ix.nice].victim.v)) +
             ", attacker_nice=" +
             std::to_string(static_cast<int>(g.nice_levels[ix.nice].attacker.v));
  // A callback failure happened after every run of the cell succeeded, so
  // name the cell but not a (blameless) seed.
  if (callback == nullptr)
    return where + ", seed=" + std::to_string(g.seeds[seed_i]) + "]";
  return where + "] " + callback;
}

}  // namespace

std::vector<CellStats> BatchRunner::run(const BatchGrid& grid,
                                        const CellCallback& on_cell) const {
  return std::move(run(std::span(&grid, 1), on_cell).front().cells);
}

std::vector<GridRun> BatchRunner::run(std::span<const BatchGrid> grid_span,
                                      const CellCallback& on_cell,
                                      const RunCallback& on_run,
                                      bool keep_cells) const {
  const auto pool_t0 = std::chrono::steady_clock::now();
  const auto since_start = [pool_t0](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double>(t - pool_t0).count();
  };

  // Filtering changes nothing about a surviving cell: coordinates,
  // per-cell seeds, and cell_index are all derived from the full grid.
  std::vector<GridLayout> grids(grid_span.size());
  std::size_t n_runs = 0;
  std::size_t n_active = 0;
  for (std::size_t gi = 0; gi < grids.size(); ++gi) {
    GridLayout& L = grids[gi];
    L.g = normalized_grid(grid_span[gi]);
    L.geom = grid_geometry(L.g);
    L.n_cells = L.geom.cell_count();
    L.n_seeds = L.g.seeds.size();
    for (std::size_t cell = 0; cell < L.n_cells; ++cell)
      if (!L.g.cell_filter || L.g.cell_filter(cell)) L.active.push_back(cell);
    L.first_run = n_runs;
    L.first_cell = n_active;
    n_runs += L.active.size() * L.n_seeds;
    n_active += L.active.size();
  }

  // Flat numbering: cell k belongs to grid cell_grid[k]; run r to flat
  // cell run_cell[r]. Everything below is indexed by these flat positions,
  // not by grid cell index.
  std::vector<std::size_t> cell_grid(n_active);
  std::vector<std::size_t> run_cell(n_runs);
  for (std::size_t gi = 0; gi < grids.size(); ++gi) {
    const GridLayout& L = grids[gi];
    for (std::size_t pos = 0; pos < L.active.size(); ++pos) {
      cell_grid[L.first_cell + pos] = gi;
      for (std::size_t seed_i = 0; seed_i < L.n_seeds; ++seed_i)
        run_cell[L.first_run + pos * L.n_seeds + seed_i] = L.first_cell + pos;
    }
  }

  const unsigned pool = static_cast<unsigned>(
      std::min<std::size_t>(threads_, n_runs > 0 ? n_runs : 1));

  // Claim order. A lone worker takes runs in grid order, so it finishes
  // and emits each cell as early as possible. A wider pool claims by a
  // deterministic cost estimate instead — runs with an attack first, grid
  // order within each class — so the long runs do not form the tail.
  std::vector<std::size_t> order(n_runs);
  for (std::size_t r = 0; r < n_runs; ++r) order[r] = r;
  if (pool > 1) {
    std::stable_partition(order.begin(), order.end(), [&](std::size_t r) {
      const GridLayout& L = grids[cell_grid[run_cell[r]]];
      const std::size_t pos = run_cell[r] - L.first_cell;
      return L.g.attacks[L.geom.coords(L.active[pos]).attack].make != nullptr;
    });
  }

  // Result slots exist only for cells with a run finished and the cell not
  // yet aggregated, so memory tracks the runs in flight, not the pool.
  std::vector<std::vector<ExperimentResult>> pending(n_active);
  std::vector<GridRun> out(grids.size());
  for (std::size_t gi = 0; gi < grids.size(); ++gi) {
    out[gi].cells.resize(grids[gi].active.size());
    out[gi].busy_seconds.assign(pool, 0.0);
  }
  std::vector<char> grid_started(grids.size(), 0);

  std::atomic<std::size_t> next{0};

  // Everything below the mutex: result slots, per-cell completion counts,
  // the in-order emission cursor, per-grid timing, and the first-failure
  // record.
  std::mutex mutex;
  std::vector<std::size_t> runs_done(n_active, 0);
  std::vector<double> cell_wall(n_active, 0.0);
  std::vector<char> cell_failed(n_active, 0);
  std::size_t next_emit = 0;
  std::size_t error_run = n_runs;
  const char* error_callback = nullptr;
  std::exception_ptr error;
  // Keeps the first failure in grid order for a deterministic report.
  const auto fail = [&](std::size_t r, const char* callback,
                        std::exception_ptr e) {
    if (r >= error_run) return;
    error_run = r;
    error_callback = callback;
    error = std::move(e);
  };

  auto aggregate = [&](std::size_t k) {
    const GridLayout& L = grids[cell_grid[k]];
    const std::size_t pos = k - L.first_cell;
    CellStats& s = out[cell_grid[k]].cells[pos];
    static_cast<GridCellCoords&>(s) = grid_cell_coords(L.g, L.active[pos]);
    s.cell_index = L.g.cell_index_base + L.active[pos];
    s.seeds = L.g.seeds;
    s.runs.reserve(L.n_seeds);
    for (ExperimentResult& result : pending[k]) {
      // The per-run slot is dead after aggregation: move it instead of
      // deep-copying its strings/violation vectors into the cell.
      s.runs.push_back(std::move(result));
      const ExperimentResult& r = s.runs.back();
      s.for_each_stat(
          [&](const char*, RunningStats& stat, auto get) { stat.add(get(r)); });
      s.for_each_sketch([&](const char*, QuantileSketch& sketch, auto get) {
        sketch.merge(get(r));
      });
      s.kstats.merge(r.kstats);
      s.telemetry.merge(r.telemetry);
    }
    std::vector<ExperimentResult>().swap(pending[k]);
  };

  // Per-worker busy time (seconds spent inside run_experiment). Workers
  // update their slot under the emission mutex so callbacks can snapshot
  // every slot; the final read happens after the join.
  std::vector<double> busy(pool, 0.0);

  auto worker = [&](unsigned wi) {
    for (;;) {
      const std::size_t claim = next.fetch_add(1, std::memory_order_relaxed);
      if (claim >= n_runs) return;
      const std::size_t r = order[claim];
      const std::size_t k = run_cell[r];
      const std::size_t gi = cell_grid[k];
      const GridLayout& L = grids[gi];
      const BatchGrid& g = L.g;
      const std::size_t pos = k - L.first_cell;
      const std::size_t seed_i = r - L.first_run - pos * L.n_seeds;
      const GridCellIndices ix = L.geom.coords(L.active[pos]);

      std::exception_ptr run_error;
      ExperimentResult result;
      const auto t0 = std::chrono::steady_clock::now();
      try {
        ExperimentConfig cfg = g.base;
        cfg.sim.scheduler = g.schedulers[ix.scheduler];
        cfg.sim.kernel.hz = g.ticks[ix.tick];
        cfg.sim.kernel.cpu = g.cpu_freqs[ix.cpu];
        cfg.sim.kernel.ram_frames = g.ram[ix.ram].frames;
        cfg.sim.kernel.reclaim_batch = g.ram[ix.ram].reclaim_batch;
        cfg.sim.kernel.ptrace_policy = g.ptrace_policies[ix.ptrace];
        cfg.sim.kernel.jiffy_resolution_timers = g.jiffy_timers[ix.jiffy];
        cfg.population.size = g.population_sizes[ix.population];
        cfg.population.attacker_fraction = g.attacker_fractions[ix.fraction];
        cfg.nice = g.nice_levels[ix.nice];
        cfg.sim.kernel.seed = cell_seed(g.seeds[seed_i], ix);
        cfg.trace.collect_stats =
            cfg.trace.collect_stats || g.collect_kernel_stats;
        if (g.trace_path) cfg.trace.path = g.trace_path(L.active[pos], seed_i);
        const AttackFactory& make = g.attacks[ix.attack].make;
        const std::unique_ptr<attacks::Attack> attack = make ? make() : nullptr;
        result = run_experiment(cfg, attack.get());
      } catch (...) {
        run_error = std::current_exception();
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double dt = std::chrono::duration<double>(t1 - t0).count();

      const std::lock_guard<std::mutex> lock(mutex);
      // Under the lock so the callbacks can snapshot every slot.
      busy[wi] += dt;
      GridRun& gr = out[gi];
      gr.busy_seconds[wi] += dt;
      const double start = since_start(t0);
      if (!grid_started[gi] || start < gr.start_seconds) gr.start_seconds = start;
      grid_started[gi] = 1;
      gr.finish_seconds = std::max(gr.finish_seconds, since_start(t1));
      if (run_error) {
        cell_failed[k] = 1;
        fail(r, nullptr, run_error);
      }
      if (pending[k].empty()) pending[k].resize(L.n_seeds);
      pending[k][seed_i] = std::move(result);
      cell_wall[k] += dt;
      ++runs_done[k];

      // Emit every cell that is now ready, in flat order. Failed cells are
      // skipped (the pool rethrows after the join anyway) but still
      // advance the cursor.
      std::size_t emitted = 0;
      while (next_emit < n_active &&
             runs_done[next_emit] == grids[cell_grid[next_emit]].n_seeds) {
        const std::size_t emit = next_emit++;
        if (cell_failed[emit]) {
          std::vector<ExperimentResult>().swap(pending[emit]);
          continue;
        }
        aggregate(emit);
        ++emitted;
        const std::size_t egi = cell_grid[emit];
        const GridLayout& E = grids[egi];
        const std::size_t epos = emit - E.first_cell;
        CellStats& cell = out[egi].cells[epos];
        if (on_cell) {
          try {
            on_cell({E.active[epos], E.n_cells, cell_wall[emit], E.geom, cell,
                     &busy, since_start(std::chrono::steady_clock::now()), egi});
          } catch (...) {
            fail(E.first_run + epos * E.n_seeds, "per-cell callback",
                 std::current_exception());
          }
        }
        if (!keep_cells) cell = CellStats{};
      }
      if (on_run) {
        try {
          on_run({emitted, busy, since_start(std::chrono::steady_clock::now())});
        } catch (...) {
          fail(r, "per-run callback", std::current_exception());
        }
      }
    }
  };

  if (pool <= 1) {
    worker(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(pool);
    try {
      for (unsigned i = 0; i < pool; ++i) threads.emplace_back(worker, i);
    } catch (...) {
      // Thread creation failed mid-spawn: drain the workers already
      // running (they finish the queue) before propagating, so joinable
      // threads are never destroyed.
      for (auto& t : threads) t.join();
      throw;
    }
    for (auto& t : threads) t.join();
  }

  if (error) {
    const GridLayout& L = grids[cell_grid[run_cell[error_run]]];
    const std::size_t pos = run_cell[error_run] - L.first_cell;
    const std::size_t seed_i = error_run - L.first_run - pos * L.n_seeds;
    const std::string where = describe_failure(L, pos, seed_i, error_callback);
    try {
      std::rethrow_exception(error);
    } catch (const std::exception& e) {
      throw std::runtime_error(where + " failed: " + e.what());
    } catch (...) {
      throw std::runtime_error(where + " failed with a non-std exception");
    }
  }
  if (!keep_cells)
    for (GridRun& gr : out) std::vector<CellStats>().swap(gr.cells);
  return out;
}

}  // namespace mtr::core
