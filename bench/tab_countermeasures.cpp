// Countermeasure ablation (§VI-B): for every attack, what each metering
// scheme bills the victim and whether the integrity monitors detect the
// tampering. This is the constructive half of the paper — which of the
// three properties (source integrity, execution integrity, fine-grained
// metering) kills which attack. Runs as one BatchRunner grid (baseline +
// the seven-attack roster x replicate seeds); detection columns compare
// each attacked run with the baseline run of the same replicate seed, and
// bills are cell means.
#include "bench/attack_roster.hpp"
#include "bench/bench_util.hpp"
#include "bench/sweeps.hpp"

namespace mtr::bench {
namespace {

void run_tab_countermeasures(const report::SweepContext& ctx) {
  const auto kind = workloads::WorkloadKind::kWhetstone;

  core::BatchGrid grid;
  grid.base = base_config(kind, ctx.scale);
  grid.seeds = ctx.seeds;
  grid.attacks.push_back({"baseline", nullptr});
  for (const RosterEntry& e : attack_roster(ctx.scale))
    grid.attacks.push_back({e.label, e.make});

  ctx.begin_progress("tab_countermeasures", grid.attacks.size());
  const std::size_t n_seeds = grid.seeds.size();
  const auto cells = ctx.run_grid("tab_countermeasures", std::move(grid));
  // Detection compares every attack cell against the baseline cell
  // replicate-for-replicate, so partial cell sets skip the rendering.
  if (ctx.partial) return;
  const core::CellStats& base = cells.front();

  std::ostream& os = ctx.os();
  os << "==== Table (from §VI-B) — countermeasure effectiveness on "
        "Whetstone ====\n"
     << "bills are the victim's mean CPU seconds over " << n_seeds
     << " seed(s) under each metering scheme; src/exec = integrity detection\n\n";

  TextTable table({"attack", "tick_bill(s)", "tsc_bill(s)", "pais_bill(s)",
                   "tick_excess", "tsc_excess", "pais_excess", "src_detects",
                   "witness_detects"});
  const auto excess = [](double bill, double baseline) {
    return fmt_percent_delta(baseline > 0 ? (bill - baseline) / baseline * 100.0
                                          : 0.0);
  };
  // Witness detection compares replicate-for-replicate: the witness chain
  // hashes the victim's own step sequence, which is stable across kernel
  // seeds, so any per-seed mismatch against the baseline means injected or
  // perturbed victim execution.
  const auto witness_detects = [&](const core::CellStats& c) -> std::string {
    std::size_t hits = 0;
    for (std::size_t i = 0; i < c.runs.size(); ++i)
      if (!(c.runs[i].witness == base.runs[i].witness)) ++hits;
    if (hits == 0) return "no";
    if (hits == c.runs.size()) return "YES";
    return "YES(" + std::to_string(hits) + "/" + std::to_string(c.runs.size()) + ")";
  };

  table.add_row({"(baseline)", fmt_double(base.billed_seconds.mean()),
                 fmt_double(base.tsc_seconds.mean()),
                 fmt_double(base.pais_seconds.mean()), "-", "-", "-", "-", "-"});
  for (std::size_t i = 1; i < cells.size(); ++i) {
    const core::CellStats& c = cells[i];
    table.add_row({c.attack_label, fmt_double(c.billed_seconds.mean()),
                   fmt_double(c.tsc_seconds.mean()),
                   fmt_double(c.pais_seconds.mean()),
                   excess(c.billed_seconds.mean(), base.billed_seconds.mean()),
                   excess(c.tsc_seconds.mean(), base.tsc_seconds.mean()),
                   excess(c.pais_seconds.mean(), base.pais_seconds.mean()),
                   c.all_source_ok() ? "no" : "YES", witness_detects(c)});
  }
  table.render(os);
  os << "\nreading guide: launch/library attacks leave every meter "
        "inflated but are caught by source integrity + witness; the "
        "scheduling attack defeats the tick meter only; flooding "
        "attacks defeat tick+TSC but not process-aware accounting.\n";
}

}  // namespace

void register_tab_countermeasures(report::SweepRegistry& registry) {
  registry.add({"tab_countermeasures",
                "Table (§VI-B) — countermeasure effectiveness on Whetstone",
                run_tab_countermeasures});
}

}  // namespace mtr::bench
