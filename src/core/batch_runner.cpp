#include "core/batch_runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <tuple>
#include <utility>

#include "common/ensure.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"

namespace mtr::core {
namespace {

constexpr bool is_scenario(Axis a) { return a >= kCpuAxis; }

using Cfg = ExperimentConfig;
using Sep = std::string_view;

/// One row of the axis table: everything the runner, the geometry and the
/// cell spellings know about an axis whose values are plain data.
template <typename T>
struct AxisRow {
  Axis axis;
  std::vector<T> BatchGrid::*values;
  T GridCellCoords::*coord;
  const char* label;                           // dry-run shape key
  T (*base)(const Cfg&);                       // what an empty axis takes
  void (*apply)(Cfg&, const T&);               // sets a run's config
  void (*spell)(std::string&, const T&, Sep);  // name=value; Sep joins pairs
  std::uint64_t salt;  // cell_seed multiplier (scenario axes only)

  /// The value at index `i`, or the base value when the axis is empty.
  T at(const BatchGrid& grid, std::size_t i) const {
    const std::vector<T>& v = grid.*values;
    return v.empty() ? base(grid.base) : v[i];
  }
};

/// Every axis but the attack, in Axis order. Distinct odd salts keep the
/// scenario axes' seed contributions decorrelated from one another.
constexpr std::tuple kAxes{
    AxisRow<sim::SchedulerKind>{
        kSchedulerAxis, &BatchGrid::schedulers, &GridCellCoords::scheduler, "scheduler",
        [](auto& c) { return c.sim.scheduler; },
        [](auto& c, auto& v) { c.sim.scheduler = v; },
        [](auto& o, auto& v, Sep) { (o += "scheduler=") += sim::to_string(v); }, 0},
    AxisRow<TimerHz>{
        kHzAxis, &BatchGrid::ticks, &GridCellCoords::hz, "hz",
        [](auto& c) { return c.sim.kernel.hz; },
        [](auto& c, auto& v) { c.sim.kernel.hz = v; },
        [](auto& o, auto& v, Sep) { append_number(o += "hz=", v.v); }, 0},
    AxisRow<CpuHz>{
        kCpuAxis, &BatchGrid::cpu_freqs, &GridCellCoords::cpu, "cpu",
        [](auto& c) { return c.sim.kernel.cpu; },
        [](auto& c, auto& v) { c.sim.kernel.cpu = v; },
        [](auto& o, auto& v, Sep) { append_number(o += "cpu_hz=", v.v); },
        0xA24BAED4963EE407ull},
    AxisRow<RamSpec>{
        kRamAxis, &BatchGrid::ram, &GridCellCoords::ram, "ram",
        [](auto& c) {
          return RamSpec{c.sim.kernel.ram_frames, c.sim.kernel.reclaim_batch};
        },
        [](auto& c, auto& v) {
          c.sim.kernel.ram_frames = v.frames;
          c.sim.kernel.reclaim_batch = v.reclaim_batch;
        },
        [](auto& o, auto& v, Sep) {
          append_number(o += "ram=", std::uint64_t{v.frames});
          append_number(o += "f/", std::uint64_t{v.reclaim_batch});
        },
        0x9FB21C651E98DF25ull},
    AxisRow<kernel::PtracePolicy>{
        kPtraceAxis, &BatchGrid::ptrace_policies, &GridCellCoords::ptrace, "ptrace",
        [](auto& c) { return c.sim.kernel.ptrace_policy; },
        [](auto& c, auto& v) { c.sim.kernel.ptrace_policy = v; },
        [](auto& o, auto& v, Sep) { (o += "ptrace=") += kernel::to_string(v); },
        0xD6E8FEB86659FD93ull},
    AxisRow<bool>{
        kJiffyAxis, &BatchGrid::jiffy_timers, &GridCellCoords::jiffy_timers, "jiffy",
        [](auto& c) { return c.sim.kernel.jiffy_resolution_timers; },
        [](auto& c, auto& v) { c.sim.kernel.jiffy_resolution_timers = v; },
        [](auto& o, auto& v, Sep) { o += v ? "jiffy_timers=on" : "jiffy_timers=off"; },
        0xCA5A826395121157ull},
    AxisRow<std::uint32_t>{
        kPopulationAxis, &BatchGrid::population_sizes, &GridCellCoords::population,
        "population", [](auto& c) { return c.population.size; },
        [](auto& c, auto& v) { c.population.size = v; },
        [](auto& o, auto& v, Sep) { append_number(o += "population=", std::uint64_t{v}); },
        0xE7037ED1A0B428DBull},
    AxisRow<double>{
        kFractionAxis, &BatchGrid::attacker_fractions, &GridCellCoords::attacker_fraction,
        "fraction", [](auto& c) { return c.population.attacker_fraction; },
        [](auto& c, auto& v) { c.population.attacker_fraction = v; },
        [](auto& o, auto& v, Sep) { append_number(o += "attacker_fraction=", v); },
        0x8EBC6AF09C88C6E3ull},
    AxisRow<NiceSpec>{
        kNiceAxis, &BatchGrid::nice_levels, &GridCellCoords::nice, "nice",
        [](auto& c) { return c.nice; },
        [](auto& c, auto& v) { c.nice = v; },
        [](auto& o, auto& v, Sep sep) {
          append_number(o += "victim_nice=", std::int64_t{v.victim.v});
          append_number((o += sep) += "attacker_nice=", std::int64_t{v.attacker.v});
        },
        0x589965CC75374CC3ull},
};

template <typename F>
void for_each_axis(F&& f) {
  std::apply([&](const auto&... row) { (f(row), ...); }, kAxes);
}

/// The attack axis, which the table leaves out: its values are factories,
/// and only their labels reach GridCellCoords.
const AttackSpec& attack_at(const BatchGrid& grid, std::size_t i) {
  static const AttackSpec baseline{"baseline", nullptr};
  return grid.attacks.empty() ? baseline : grid.attacks[i];
}

/// The config one run of cell `ix` executes: `grid.base` with every axis
/// value written in and the run's derived kernel seed.
ExperimentConfig run_config(const BatchGrid& grid, const GridCellIndices& ix,
                            std::uint64_t grid_seed) {
  ExperimentConfig cfg = grid.base;
  for_each_axis([&](const auto& row) { row.apply(cfg, row.at(grid, ix[row.axis])); });
  cfg.sim.kernel.seed = cell_seed(grid_seed, ix);
  return cfg;
}

/// A seed-invariant replicate: `first` without its kernel counters and
/// telemetry, which the cell folds from the first run once, with the copies
/// as multiplicity. The telemetry steps aside while the rest is copied.
ExperimentResult replicate_of(ExperimentResult& first) {
  trace::Telemetry telemetry = std::exchange(first.telemetry, {});
  ExperimentResult copy = first;
  first.telemetry = std::move(telemetry);
  copy.kstats = {};
  return copy;
}

}  // namespace

GridCellIndices GridGeometry::coords(std::size_t cell) const {
  GridCellIndices ix;
  for (std::size_t a = kAxisCount; a-- > 0;) {
    ix[a] = cell % extents[a];
    cell /= extents[a];
  }
  return ix;
}

GridGeometry grid_geometry(const BatchGrid& grid) {
  GridGeometry geom;
  geom.extents[kAttackAxis] = std::max<std::size_t>(grid.attacks.size(), 1);
  for_each_axis([&](const auto& row) {
    geom.extents[row.axis] = std::max<std::size_t>((grid.*row.values).size(), 1);
  });
  return geom;
}

bool cell_has_attack(const BatchGrid& grid, const GridGeometry& geom,
                     std::size_t cell) {
  return attack_at(grid, geom.coords(cell)[kAttackAxis]).make != nullptr;
}

std::size_t grid_cell_count(const BatchGrid& grid) {
  return grid_geometry(grid).cell_count();
}

GridCellCoords grid_cell_coords(const BatchGrid& grid, std::size_t cell) {
  const GridCellIndices ix = grid_geometry(grid).coords(cell);
  GridCellCoords c;
  c.attack_label = attack_at(grid, ix[kAttackAxis]).label;
  for_each_axis([&](const auto& row) { c.*row.coord = row.at(grid, ix[row.axis]); });
  return c;
}

void append_cell_coords(std::string& out, const GridCellCoords& cell,
                        const GridGeometry& geom, std::string_view sep) {
  out += "attack=";
  out += cell.attack_label;
  for_each_axis([&](const auto& row) {
    if (!is_scenario(row.axis) || geom.extents[row.axis] > 1)
      row.spell(out += sep, cell.*row.coord, sep);
  });
}

std::string grid_shape(const GridGeometry& geom) {
  bool scenario = false;
  std::string out = "attack=" + std::to_string(geom.extents[kAttackAxis]);
  for_each_axis([&](const auto& row) {
    scenario = scenario || (is_scenario(row.axis) && geom.extents[row.axis] > 1);
    out += std::string(" ") + row.label + "=" + std::to_string(geom.extents[row.axis]);
  });
  return scenario ? out : std::string();
}

bool CellStats::all_source_ok() const {
  for (const ExperimentResult& r : runs)
    if (!r.source_verdict.ok) return false;
  return true;
}

std::uint64_t cell_seed(std::uint64_t grid_seed, const GridCellIndices& ix) {
  // Each step is one SplitMix64 output from a fresh state.
  std::uint64_t h = SplitMix64(grid_seed).next();
  // Attack, scheduler and hz always mix in, each shifted into its own bits.
  for (std::size_t a = kAttackAxis; a < kCpuAxis; ++a)
    h = SplitMix64(h ^ ((static_cast<std::uint64_t>(ix[a]) + 1) << (20 * a))).next();
  // Scenario axes mix in only off their base index so unused axes leave
  // the seed stream exactly as it was before the axis existed.
  for_each_axis([&](const auto& row) {
    if (is_scenario(row.axis) && ix[row.axis] != 0)
      h = SplitMix64(h ^ (ix[row.axis] * row.salt)).next();
  });
  return h;
}

BatchRunner::BatchRunner(unsigned threads) : threads_(threads) {
  if (threads_ == 0) threads_ = std::thread::hardware_concurrency();
  if (threads_ == 0) threads_ = 1;
}

namespace {

/// One grid of a pool invocation, laid out for the workers: the grid,
/// the cells that run, and where its runs and cells start in the pool's
/// flat numbering (grid-major, then cell, then seed).
struct GridLayout {
  const BatchGrid* g = nullptr;
  GridGeometry geom;
  std::size_t n_cells = 0;           // full grid
  std::vector<std::uint64_t> seeds;  // an empty seed list runs the base seed
  std::vector<std::size_t> active;   // grid-order indices of admitted cells
  std::size_t first_run = 0;
  std::size_t first_cell = 0;
};

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
    L.g = &grid_span[gi];
    L.geom = grid_geometry(*L.g);
    L.n_cells = L.geom.cell_count();
    L.seeds = L.g->seeds;
    if (L.seeds.empty()) L.seeds.push_back(L.g->base.sim.kernel.seed);
    for (std::size_t cell = 0; cell < L.n_cells; ++cell)
      if (!L.g->cell_filter || L.g->cell_filter(cell)) L.active.push_back(cell);
    L.first_run = n_runs;
    L.first_cell = n_active;
    n_runs += L.active.size() * L.seeds.size();
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
      for (std::size_t seed_i = 0; seed_i < L.seeds.size(); ++seed_i)
        run_cell[L.first_run + pos * L.seeds.size() + seed_i] = L.first_cell + pos;
    }
  }

  const unsigned pool = static_cast<unsigned>(
      std::min<std::size_t>(threads_, n_runs > 0 ? n_runs : 1));

  // Claim order. A lone worker takes runs in grid order, so it finishes
  // and emits each cell as early as possible. A wider pool claims runs
  // with an attack before baseline runs — a deterministic cost estimate,
  // so the long runs do not form the tail — and within each class every
  // cell's first replicate before any later one, so a later replicate
  // mostly finds its first one finished; grid order breaks ties.
  const auto seed_index = [&](std::size_t r) {
    const GridLayout& L = grids[cell_grid[run_cell[r]]];
    return (r - L.first_run) % L.seeds.size();
  };
  std::vector<std::size_t> order(n_runs);
  for (std::size_t r = 0; r < n_runs; ++r) order[r] = r;
  if (pool > 1) {
    std::stable_partition(order.begin(), order.end(),
                          [&](std::size_t r) { return seed_index(r) == 0; });
    std::stable_partition(order.begin(), order.end(), [&](std::size_t r) {
      const GridLayout& L = grids[cell_grid[run_cell[r]]];
      return cell_has_attack(*L.g, L.geom, L.active[run_cell[r] - L.first_cell]);
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
  // the in-order emission cursor, per-grid timing, the state of each
  // cell's first replicate, and the first-failure record.
  std::mutex mutex;
  // A first replicate drew from its seed or ended, or a run failed.
  std::condition_variable first_done;
  enum class First : char { kPending, kInvariant, kRerun };
  std::vector<First> first(n_active, First::kPending);
  std::vector<std::size_t> runs_done(n_active, 0);
  std::vector<std::uint64_t> copies(n_active, 0);  // replicates copied
  std::vector<double> cell_wall(n_active, 0.0);
  std::size_t next_emit = 0;
  // Fail-stop: the flat index of the first failed cell. No run of it or of
  // a later cell starts once it is set, and emission stops before it, so a
  // failed invocation leaves exactly the cells before it: a clean prefix.
  std::atomic<std::size_t> stop_cell{n_active};
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
    stop_cell.store(run_cell[r], std::memory_order_relaxed);
    first_done.notify_all();
  };

  auto aggregate = [&](std::size_t k) {
    const GridLayout& L = grids[cell_grid[k]];
    const std::size_t pos = k - L.first_cell;
    CellStats& s = out[cell_grid[k]].cells[pos];
    static_cast<GridCellCoords&>(s) = grid_cell_coords(*L.g, L.active[pos]);
    s.cell_index = L.g->cell_index_base + L.active[pos];
    s.seeds = L.seeds;
    s.runs.reserve(L.seeds.size());
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
      // A copied replicate holds no counters or telemetry: the first run
      // folds in once for itself and once per copy.
      const std::uint64_t times = s.runs.size() == 1 ? 1 + copies[k] : 1;
      s.kstats.merge(r.kstats, times);
      s.telemetry.merge(r.telemetry, times);
    }
    std::vector<ExperimentResult>().swap(pending[k]);
  };

  // Per-worker busy time (seconds spent inside run_experiment). Workers
  // update their slot under the emission mutex so callbacks can snapshot
  // every slot; the final read happens after the join.
  std::vector<double> busy(pool, 0.0);

  auto worker = [&](unsigned wi) {
    std::unique_lock<std::mutex> lock(mutex, std::defer_lock);
    for (;;) {
      const std::size_t claim = next.fetch_add(1, std::memory_order_relaxed);
      if (claim >= n_runs) return;
      const std::size_t r = order[claim];
      const std::size_t k = run_cell[r];
      if (k >= stop_cell.load(std::memory_order_relaxed)) continue;
      const std::size_t gi = cell_grid[k];
      const GridLayout& L = grids[gi];
      const BatchGrid& g = *L.g;
      const std::size_t pos = k - L.first_cell;
      const std::size_t seed_i = seed_index(r);
      const GridCellIndices ix = L.geom.coords(L.active[pos]);

      // A later replicate of a cell whose first replicate drew no
      // randomness is that run again: take its result instead of running
      // it. While the first replicate may still turn out seed-invariant,
      // wait for it: it ends sooner than a rerun would, and the set of
      // executed runs stays the same at every thread count. A population
      // reads the seed before anything runs, so its cell never waits; a
      // first replicate that starts a NIC flood releases its cell's
      // waiters once it has set up, so they run without waiting for it to
      // end. First replicates never wait and are claimed earlier, so the
      // wait ends. A grid that traces runs every replicate: a traced run
      // observes what an untraced one does not.
      ExperimentConfig cfg = run_config(g, ix, L.seeds[seed_i]);
      std::exception_ptr run_error;
      ExperimentResult result;
      bool copied = false;
      if (seed_i > 0 && !g.trace_path && !cfg.population.enabled()) {
        lock.lock();
        first_done.wait(lock, [&] {
          return first[k] != First::kPending ||
                 k >= stop_cell.load(std::memory_order_relaxed);
        });
        if (k >= stop_cell.load(std::memory_order_relaxed)) {
          lock.unlock();
          continue;
        }
        copied = first[k] == First::kInvariant;
        if (copied) {
          result = replicate_of(pending[k][0]);
          ++copies[k];
        } else {
          lock.unlock();
        }
      }
      const auto t0 = std::chrono::steady_clock::now();
      if (!copied) {
        try {
          if (g.trace_path) cfg.trace.path = g.trace_path(L.active[pos], seed_i);
          const AttackFactory& make = attack_at(g, ix[kAttackAxis]).make;
          const std::unique_ptr<attacks::Attack> attack = make ? make() : nullptr;
          const auto release = [&](bool seed_drawn) {
            if (!seed_drawn) return;
            const std::lock_guard<std::mutex> hold(mutex);
            first[k] = First::kRerun;
            first_done.notify_all();
          };
          result = run_experiment(cfg, attack.get(),
                                  seed_i == 0 ? SetupCallback(release) : nullptr);
        } catch (...) {
          run_error = std::current_exception();
        }
      }
      const auto t1 = std::chrono::steady_clock::now();
      const double dt = std::chrono::duration<double>(t1 - t0).count();

      if (!copied) lock.lock();
      // Under the lock so the callbacks can snapshot every slot.
      busy[wi] += dt;
      GridRun& gr = out[gi];
      gr.busy_seconds[wi] += dt;
      const double start = since_start(t0);
      if (!grid_started[gi] || start < gr.start_seconds) gr.start_seconds = start;
      grid_started[gi] = 1;
      gr.finish_seconds = std::max(gr.finish_seconds, since_start(t1));
      if (seed_i == 0) {
        first[k] = run_error || result.seed_dependent ? First::kRerun : First::kInvariant;
        first_done.notify_all();
      }
      if (run_error) fail(r, nullptr, run_error);
      if (pending[k].empty()) pending[k].resize(L.seeds.size());
      pending[k][seed_i] = std::move(result);
      cell_wall[k] += dt;
      ++runs_done[k];

      // Emit every cell that is now ready, in flat order, up to the first
      // failed one.
      std::size_t emitted = 0;
      while (next_emit < stop_cell.load(std::memory_order_relaxed) &&
             runs_done[next_emit] == grids[cell_grid[next_emit]].seeds.size()) {
        const std::size_t emit = next_emit++;
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
            fail(E.first_run + epos * E.seeds.size(), "per-cell callback",
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
      lock.unlock();
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
    const std::size_t seed_i = error_run - L.first_run - pos * L.seeds.size();
    std::string where = "BatchRunner cell [";
    append_cell_coords(where, grid_cell_coords(*L.g, L.active[pos]), L.geom, ", ");
    // A callback failure happened after every run of the cell succeeded,
    // so name the cell but not a (blameless) seed.
    if (error_callback != nullptr) {
      (where += "] ") += error_callback;
    } else {
      append_number(where += ", seed=", L.seeds[seed_i]);
      where += ']';
    }
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
