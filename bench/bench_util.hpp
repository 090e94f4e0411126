// Shared harness for the figure-reproduction sweeps.
//
// Each fig* sweep reruns one experiment of the paper's §V as a BatchRunner
// grid (normal vs. attacked as a two-entry attack dimension, replicate
// seeds per cell), streams every cell through the driver's result sinks,
// and renders the figure as ASCII stacked bars (user/system split — the
// same series the paper plots) plus an overcharge table against the
// cycle-exact ground truth. Sweep parameters (scale, seeds, threads) come
// from the report::SweepContext the mtr_sweep driver builds.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/table.hpp"
#include "core/batch_runner.hpp"
#include "core/experiment.hpp"
#include "report/sweep.hpp"

namespace mtr::bench {

/// "1.23 +/- 0.04" — a cell statistic rendered as mean and spread.
inline std::string fmt_stat(const RunningStats& s, int precision = 3) {
  std::string out = fmt_double(s.mean(), precision);
  if (s.count() > 1) out += " +/- " + fmt_double(s.stddev(), precision);
  return out;
}

inline core::ExperimentConfig base_config(workloads::WorkloadKind kind, double scale) {
  core::ExperimentConfig cfg;
  cfg.kind = kind;
  cfg.workload.scale = scale;
  return cfg;
}

inline const std::vector<workloads::WorkloadKind>& all_workloads() {
  static const std::vector<workloads::WorkloadKind> kAll = {
      workloads::WorkloadKind::kOurs, workloads::WorkloadKind::kPi,
      workloads::WorkloadKind::kWhetstone, workloads::WorkloadKind::kBrute};
  return kAll;
}

struct CellRow {
  std::string label;
  const core::CellStats* cell;
};

/// Renders one figure from aggregated cells: grouped normal/attacked bars
/// of the mean billed user/system split, plus the analysis table (cell
/// means, overcharge with spread).
inline void render_cell_figure(std::ostream& os, const std::string& title,
                               const std::vector<CellRow>& rows,
                               const std::string& note, std::size_t n_seeds) {
  os << "==== " << title << " ====\n";
  if (!note.empty()) os << note << "\n";
  os << "(cell means over " << n_seeds << " seed(s); machine-readable output "
     << "via the mtr_sweep sinks)\n\n";

  BarChart chart(title + " — CPU time (U = user, S = system)");
  std::string last_prefix;
  for (const CellRow& row : rows) {
    const std::string prefix = row.label.substr(0, row.label.find(' '));
    if (!last_prefix.empty() && prefix != last_prefix) chart.add_gap();
    last_prefix = prefix;
    chart.add({row.label, row.cell->billed_user_seconds.mean(),
               row.cell->billed_system_seconds.mean()});
  }
  chart.render(os);
  os << '\n';

  TextTable table({"run", "billed_u(s)", "billed_s(s)", "billed(s)", "true(s)",
                   "tsc(s)", "pais(s)", "overcharge", "src_ok", "majflt",
                   "dbgexc"});
  for (const CellRow& row : rows) {
    const core::CellStats& c = *row.cell;
    table.add_row({row.label, fmt_double(c.billed_user_seconds.mean()),
                   fmt_double(c.billed_system_seconds.mean()),
                   fmt_double(c.billed_seconds.mean()),
                   fmt_double(c.true_seconds.mean()), fmt_double(c.tsc_seconds.mean()),
                   fmt_double(c.pais_seconds.mean()),
                   fmt_stat(c.overcharge, 2) + "x",
                   c.all_source_ok() ? "yes" : "NO",
                   fmt_double(c.major_faults.mean(), 1),
                   fmt_double(c.debug_exceptions.mean(), 1)});
  }
  table.render(os);
  os << std::endl;
}

/// The shared shape of Figs. 4, 5, 6, 9, 10 and 11: for every workload, a
/// {baseline, attacked} BatchRunner grid over the context's seeds; cells
/// stream through the sinks as they complete, and the combined figure
/// renders once everything is in. `tweak` adjusts the base config (e.g.
/// Fig. 11 shrinks RAM). Sharded/resumed/dry invocations run (or plan)
/// their subset of every grid and skip the rendering — it needs the full
/// cell set, which only the sinks plus mtr_merge can see.
inline void run_attack_figure(
    const report::SweepContext& ctx, const std::string& sweep,
    const std::string& title, const std::string& note,
    const core::AttackFactory& attack,
    const std::function<void(core::ExperimentConfig&)>& tweak = {}) {
  const auto& kinds = all_workloads();
  ctx.begin_progress(sweep, kinds.size() * 2);

  std::vector<core::CellStats> cells;  // [normal, attacked] per workload
  cells.reserve(kinds.size() * 2);
  for (const auto kind : kinds) {
    core::BatchGrid grid;
    grid.base = base_config(kind, ctx.scale);
    if (tweak) tweak(grid.base);
    grid.seeds = ctx.seeds;
    // The workload rides in the attack label so progress lines and
    // BatchRunner failure coordinates can tell the four grids apart (the
    // sink rows carry a dedicated workload column regardless).
    const std::string name = workloads::short_name(kind);
    grid.attacks.push_back({name + " normal", nullptr});
    grid.attacks.push_back({name + " attacked", attack});
    for (auto& cell : ctx.run_grid(sweep, std::move(grid)))
      cells.push_back(std::move(cell));
  }
  if (ctx.partial) return;

  std::vector<CellRow> rows;
  for (const core::CellStats& cell : cells)
    rows.push_back({cell.attack_label, &cell});
  render_cell_figure(ctx.os(), title, rows, note, ctx.seeds.size());
}

}  // namespace mtr::bench
