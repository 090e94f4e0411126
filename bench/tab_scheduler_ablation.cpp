// Scheduler ablation (§III-A note on CFS): the paper observes that the
// 2.6.23+ Completely Fair Scheduler still performs tick-based accounting,
// so the metering flaw is scheduling-policy independent. This sweep fans a
// BatchRunner grid — scheduling attack at three nice levels x both
// schedulers x replicate seeds — across the worker pool and compares the
// victim's mean overcharge under the O(1)-style priority scheduler and the
// CFS-like fair scheduler.
#include <memory>

#include "bench/attack_roster.hpp"
#include "bench/bench_util.hpp"
#include "bench/sweeps.hpp"

namespace mtr::bench {
namespace {

void run_tab_scheduler_ablation(const report::SweepContext& ctx) {
  const double scale = ctx.scale;
  const std::vector<int> nices = {0, -10, -20};

  core::BatchGrid grid;
  grid.base = base_config(workloads::WorkloadKind::kWhetstone, scale);
  grid.schedulers = {sim::SchedulerKind::kO1, sim::SchedulerKind::kCfs};
  for (const int nice : nices) {
    grid.attacks.push_back(
        {"nice" + std::to_string(nice), [nice, scale] {
           return std::make_unique<attacks::SchedulingAttack>(fork_params(scale, nice));
         }});
  }

  const std::size_t n_scheds = grid.schedulers.size();
  const auto cells = ctx.run_grid("tab_scheduler_ablation", std::move(grid));
  // The scheduler-major re-ordering below indexes the full grid; partial
  // cell sets skip the rendering.
  if (ctx.partial) return;

  std::ostream& os = ctx.os();
  os << "==== Scheduler ablation — scheduling attack under O(1) vs CFS ====\n";
  os << "(mean over " << ctx.seeds.size() << " seed(s))\n\n";
  TextTable table({"scheduler", "nice", "victim_true(s)", "tick_bill(s)",
                   "overcharge", "attacker_billed(s)", "attacker_true(s)"});

  // Cells arrive attack-major; render scheduler-major to match the paper.
  for (std::size_t sched_i = 0; sched_i < n_scheds; ++sched_i) {
    for (std::size_t nice_i = 0; nice_i < nices.size(); ++nice_i) {
      const core::CellStats& c = cells[nice_i * n_scheds + sched_i];
      table.add_row({sim::to_string(c.scheduler), std::to_string(nices[nice_i]),
                     fmt_double(c.true_seconds.mean()),
                     fmt_double(c.billed_seconds.mean()),
                     fmt_stat(c.overcharge, 2) + "x",
                     fmt_double(c.attacker_billed_seconds.mean()),
                     fmt_double(c.attacker_true_seconds.mean())});
    }
  }
  table.render(os);
  os << "\nexpectation: the attack inflates the victim's jiffy bill "
        "under both policies — the vulnerability lives in the "
        "accounting, not the scheduling algorithm.\n";
}

}  // namespace

void register_tab_scheduler_ablation(report::SweepRegistry& registry) {
  registry.add({"tab_scheduler_ablation",
                "Scheduler ablation — scheduling attack under O(1) vs CFS",
                run_tab_scheduler_ablation});
}

}  // namespace mtr::bench
