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

std::vector<core::CellStats> SweepContext::run_grid(
    const std::string& sweep_name, core::BatchGrid grid) const {
  grid.seeds = seeds;
  if (grids != nullptr && partial) {
    grids->queued.push_back({sweep_name, std::move(grid)});
    return {};
  }
  if (grids != nullptr) {
    MTR_ENSURE_MSG(grids->rendered < grids->runs.size(),
                   "sweep " << sweep_name
                            << " asked for more grids than its plan pass ran");
    return std::move(grids->runs[grids->rendered++].cells);
  }
  MTR_ENSURE_MSG(cell_cursor != nullptr && sink != nullptr,
                 "SweepContext::run_grid without a pool slot needs a cell "
                 "counter and a sink");
  grid.cell_index_base = *cell_cursor;
  *cell_cursor += core::grid_cell_count(grid);
  return core::BatchRunner(threads).run(
      grid, [&](const core::CellEvent& ev) { sink->write_cell(sweep_name, ev.cell); });
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
