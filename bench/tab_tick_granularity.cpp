// Tick-granularity ablation (§III-A / §VI-B "fine-grained metering"): the
// scheduling attack's yield against the commodity meter as a function of
// HZ, next to the TSC meter at every setting. The paper argues the attack
// exploits the clock-tick resolution; finer ticks shrink it and TSC
// metering eliminates it. One BatchRunner grid — HZ x replicate seeds —
// fans across the worker pool; rows report cell means.
#include <memory>

#include "attacks/scheduling_attack.hpp"
#include "bench/bench_util.hpp"
#include "bench/sweeps.hpp"

namespace mtr::bench {
namespace {

void run_tab_tick_granularity(const report::SweepContext& ctx) {
  const double scale = ctx.scale;

  core::BatchGrid grid;
  grid.base = base_config(workloads::WorkloadKind::kWhetstone, scale);
  grid.ticks = {TimerHz{100}, TimerHz{250}, TimerHz{1000}};
  grid.seeds = ctx.seeds;
  grid.attacks.push_back({"scheduling", [scale] {
                            attacks::SchedulingAttackParams params;
                            params.nice = Nice{-20};
                            params.total_forks =
                                static_cast<std::uint64_t>(150'000 * scale);
                            return std::make_unique<attacks::SchedulingAttack>(
                                params);
                          }});

  ctx.begin_progress("tab_tick_granularity", grid.ticks.size());
  const std::size_t n_seeds = grid.seeds.size();
  const auto cells = ctx.run_grid("tab_tick_granularity", std::move(grid));
  if (ctx.partial) return;

  std::ostream& os = ctx.os();
  os << "==== Tick-granularity ablation — scheduling attack vs HZ ====\n";
  os << "(mean over " << n_seeds << " seed(s))\n\n";
  TextTable table({"HZ", "tick(ms)", "victim_true(s)", "tick_bill(s)",
                   "tick_overcharge", "tsc_bill(s)", "tsc_overcharge"});

  for (const core::CellStats& c : cells) {
    table.add_row({std::to_string(c.hz.v),
                   fmt_double(1000.0 / static_cast<double>(c.hz.v), 1),
                   fmt_double(c.true_seconds.mean()),
                   fmt_double(c.billed_seconds.mean()),
                   fmt_stat(c.overcharge, 2) + "x",
                   fmt_double(c.tsc_seconds.mean()),
                   fmt_ratio(c.tsc_seconds.mean() / c.true_seconds.mean(), 4)});
  }
  table.render(os);
  os << "\nexpectation: overcharge shrinks with finer ticks; the "
        "TSC meter reads 1.0000x at every HZ.\n";
}

}  // namespace

void register_tab_tick_granularity(report::SweepRegistry& registry) {
  registry.add({"tab_tick_granularity",
                "Tick-granularity ablation — scheduling attack vs HZ",
                run_tab_tick_granularity});
}

}  // namespace mtr::bench
