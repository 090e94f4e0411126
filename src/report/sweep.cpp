#include "report/sweep.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace mtr::report {

trace::PoolMetrics SweepGrids::pool() const {
  trace::PoolMetrics pm;
  double start = 0.0;
  double finish = 0.0;
  bool any = false;
  for (const core::GridRun& run : runs) {
    // Every grid of one pool has one busy slot per worker.
    pm.busy_seconds.resize(run.busy_seconds.size(), 0.0);
    for (std::size_t w = 0; w < run.busy_seconds.size(); ++w)
      pm.busy_seconds[w] += run.busy_seconds[w];
    if (run.finish_seconds == 0.0) continue;  // the grid ran nothing
    start = any ? std::min(start, run.start_seconds) : run.start_seconds;
    finish = std::max(finish, run.finish_seconds);
    any = true;
  }
  pm.threads = pm.busy_seconds.size();
  pm.wall_seconds = finish - start;
  return pm;
}

void SweepContext::begin_progress(const std::string& label,
                                  std::size_t total_cells) const {
  if (grids == nullptr || render) return;
  grids->progress_label = label;
  grids->progress_total = total_cells;
}

std::vector<core::CellStats> SweepContext::run_grid(
    const std::string& sweep_name, core::BatchGrid grid) const {
  if (grids != nullptr && render) {
    MTR_ENSURE_MSG(grids->rendered < grids->runs.size(),
                   "sweep " << sweep_name
                            << " asked for more grids than its plan pass ran");
    return std::move(grids->runs[grids->rendered++].cells);
  }
  MTR_ENSURE_MSG(cell_cursor != nullptr,
                 "SweepContext::run_grid needs a driver-owned cell counter");
  if (event_driven) grid.base.sim.kernel.event_driven = *event_driven;
  const std::size_t n_cells = core::grid_cell_count(grid);
  const std::size_t base = *cell_cursor;
  *cell_cursor += n_cells;

  // The gate sees every cell in grid order, so shard ownership and resume
  // skipping are decided against the same global numbering a
  // single-machine run would assign.
  std::vector<char> owned(n_cells, 1);
  std::size_t n_owned = n_cells;
  if (gate) {
    for (std::size_t i = 0; i < n_cells; ++i) {
      const CellKey key =
          cell_key(sweep_name, base + i, core::grid_cell_coords(grid, i));
      if (!gate(key)) {
        owned[i] = 0;
        --n_owned;
      }
    }
  }
  if (owned_cursor) *owned_cursor += n_owned;

  if (dry_run) {
    std::ostream& p = plan ? *plan : os();
    p << sweep_name << ": cells [" << base << "," << base + n_cells << ")";
    if (n_owned == n_cells) {
      p << " — runs all " << n_cells;
    } else {
      p << " — runs " << n_owned << "/" << n_cells << ":";
      for (std::size_t i = 0; i < n_cells; ++i)
        if (owned[i]) p << ' ' << base + i;
    }
    // Grids that open a scenario axis get their shape spelled out, so a
    // planned ablation shows which axes multiply the cell count.
    const core::GridGeometry geom = core::grid_geometry(grid);
    if (geom.cpus > 1 || geom.rams > 1 || geom.ptraces > 1 ||
        geom.jiffies > 1 || geom.populations > 1 || geom.fractions > 1 ||
        geom.nices > 1)
      p << " (axes: attack=" << geom.attacks << " scheduler=" << geom.schedulers
        << " hz=" << geom.ticks << " cpu=" << geom.cpus << " ram=" << geom.rams
        << " ptrace=" << geom.ptraces << " jiffy=" << geom.jiffies
        << " population=" << geom.populations << " fraction=" << geom.fractions
        << " nice=" << geom.nices << ")";
    p << '\n';
    return {};
  }

  grid.cell_index_base = base;
  if (n_owned < n_cells)
    grid.cell_filter = [owned = std::move(owned)](std::size_t i) {
      return owned[i] != 0;
    };

  grid.collect_kernel_stats = collect_stats;
  if (!trace_dir.empty()) {
    // One trace per admitted cell, first replicate only: replicate 0 is the
    // canonical seed, and one ring per cell keeps the disk cost linear in
    // cells rather than runs.
    grid.trace_path = [dir = trace_dir, sweep = sweep_name,
                       base](std::size_t cell, std::size_t seed_i) {
      if (seed_i != 0) return std::string();
      return dir + "/" + sweep + "-cell" + std::to_string(base + cell) +
             ".json";
    };
  }

  if (grids == nullptr) {
    MTR_ENSURE(sink != nullptr);
    return core::BatchRunner(threads).run(
        grid, [&](const core::CellEvent& ev) { sink->write_cell(sweep_name, ev.cell); });
  }
  grids->progress_skipped += n_cells - n_owned;
  grids->queued.push_back({sweep_name, std::move(grid)});
  return {};
}

void SweepRegistry::add(SweepSpec spec) {
  MTR_ENSURE_MSG(!spec.name.empty(), "sweep name must not be empty");
  MTR_ENSURE_MSG(spec.run != nullptr, "sweep " << spec.name << " has no body");
  MTR_ENSURE_MSG(find(spec.name) == nullptr,
                 "duplicate sweep registration: " << spec.name);
  specs_.push_back(std::move(spec));
}

const SweepSpec* SweepRegistry::find(std::string_view name) const {
  for (const SweepSpec& s : specs_)
    if (s.name == name) return &s;
  return nullptr;
}

}  // namespace mtr::report
