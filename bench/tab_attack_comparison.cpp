// Reproduces the qualitative comparison of §V-C as a measured table: for
// every attack, the vulnerability exploited, which time component it
// inflates, the measured inflation on Whetstone, the privilege it needed,
// and its side-effect radius. Runs as one BatchRunner grid — all
// attack x seed cells fan out across the worker pool — with each column
// reported as the mean over the context's replicate seeds.
#include "bench/attack_roster.hpp"
#include "bench/bench_util.hpp"
#include "bench/sweeps.hpp"

namespace mtr::bench {
namespace {

void run_tab_attack_comparison(const report::SweepContext& ctx) {
  const auto kind = workloads::WorkloadKind::kWhetstone;
  const std::vector<RosterEntry> entries = attack_roster(ctx.scale);

  core::BatchGrid grid;
  grid.base = base_config(kind, ctx.scale);
  grid.seeds = ctx.seeds;
  grid.attacks.push_back({"baseline", nullptr});
  for (const RosterEntry& e : entries) grid.attacks.push_back({e.label, e.make});

  ctx.begin_progress("tab_attack_comparison", grid.attacks.size());
  const std::size_t n_seeds = grid.seeds.size();
  const auto cells = ctx.run_grid("tab_attack_comparison", std::move(grid));
  // The table diffs every attack against the baseline cell, so it needs
  // the full grid — sharded/resumed/dry runs leave rendering to mtr_merge
  // consumers.
  if (ctx.partial) return;
  const core::CellStats& base = cells.front();

  std::ostream& os = ctx.os();
  os << "==== Table (from §V-C) — attack comparison on Whetstone ====\n";
  os << "(mean over " << n_seeds << " seed(s))\n\n";
  TextTable table({"attack", "phase", "vulnerability", "inflates",
                   "measured_delta_u(s)", "measured_delta_s(s)", "overcharge",
                   "privilege", "side_effects"});
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const RosterEntry& e = entries[i];
    const core::CellStats& c = cells[i + 1];  // cells[0] is the baseline
    // Name/phase come from a throwaway instance; cells only carry labels.
    const auto attack = e.make();
    table.add_row(
        {attack->name(), attack->phase(), e.vulnerability, e.target,
         fmt_double(c.billed_user_seconds.mean() - base.billed_user_seconds.mean()),
         fmt_double(c.billed_system_seconds.mean() -
                    base.billed_system_seconds.mean()),
         fmt_stat(c.overcharge, 2) + "x", e.privilege, e.side_effects});
  }
  table.render(os);
  os << "\nbaseline: billed " << fmt_stat(base.billed_seconds)
     << "s (u=" << fmt_double(base.billed_user_seconds.mean())
     << " s=" << fmt_double(base.billed_system_seconds.mean()) << ")\n";
}

}  // namespace

void register_tab_attack_comparison(report::SweepRegistry& registry) {
  registry.add({"tab_attack_comparison",
                "Table (§V-C) — measured attack comparison on Whetstone",
                run_tab_attack_comparison});
}

}  // namespace mtr::bench
