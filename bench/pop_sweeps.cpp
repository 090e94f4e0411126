// Population-scale multi-tenant sweeps: each opens one of the v4 grid axes
// (population size, attacker fraction, nice levels) over cells that host a
// full generated tenant population next to the instrumented victim. The
// per-cell results are distribution-aware — QuantileSketch aggregates over
// per-tenant billing error, billed vs. true seconds, and attacker
// advantage — so a cell stays O(sketch buckets) no matter how many tenants
// it hosts. The paper's single-victim overcharge story extends here to the
// population the provider actually bills.
#include <cstdlib>
#include <memory>

#include "bench/attack_roster.hpp"
#include "bench/bench_util.hpp"
#include "bench/sweeps.hpp"
#include "dist/flags.hpp"

namespace mtr::bench {
namespace {

/// "p50/p90/p99" of one cell-level sketch, the series the pop figures plot.
std::string fmt_quantiles(const QuantileSketch& s, int precision = 4) {
  if (s.count() == 0) return "-";
  return fmt_double(s.quantile(0.50), precision) + "/" +
         fmt_double(s.quantile(0.90), precision) + "/" +
         fmt_double(s.quantile(0.99), precision);
}

void run_pop_billing_gap(const report::SweepContext& ctx) {
  core::BatchGrid grid;
  grid.base = base_config(workloads::WorkloadKind::kWhetstone, ctx.scale);
  grid.attacks.push_back({"baseline", nullptr});
  // Zipf-skewed tenant mixes of growing size, a quarter of the neighbors
  // running the tick-dodging attacker program. The victim's own workload
  // never changes — only the cell around it grows. MTR_BENCH_POP=N swaps
  // the axis for {2, N} — the population-scale acceptance drill (10^4
  // tenants per cell) without inflating the default grid.
  grid.population_sizes = {2, 8, 32};
  if (const char* cap = std::getenv("MTR_BENCH_POP")) {
    grid.population_sizes = {2, dist::int_value<std::uint32_t, 2>("MTR_BENCH_POP", cap)};
  }
  grid.attacker_fractions = {0.25};

  const auto cells = ctx.run_grid("pop_billing_gap", std::move(grid));
  if (ctx.partial) return;

  std::ostream& os = ctx.os();
  os << "==== Billing-gap distribution vs. population size ====\n";
  os << "expectation: the per-tenant billed-minus-true spread widens with "
        "the tenant count (more attackers in absolute terms, more "
        "tick-sharing noise), while the honest victim's own meter stays "
        "within a jiffy\n";
  os << "(cell aggregates over " << ctx.seeds.size() << " seed(s))\n\n";
  TextTable table({"population", "tenants", "attackers", "err p50/p90/p99(s)",
                   "err mean(s)", "advantage p50/p90/p99(s)", "victim overcharge"});
  for (const core::CellStats& c : cells) {
    table.add_row({std::to_string(c.population),
                   fmt_double(c.pop_tenants.mean(), 1),
                   fmt_double(c.pop_attackers.mean(), 1),
                   fmt_quantiles(c.pop_billing_error),
                   fmt_double(c.pop_billing_error_mean.mean(), 4),
                   fmt_quantiles(c.pop_attacker_advantage),
                   fmt_stat(c.overcharge, 2) + "x"});
  }
  table.render(os);
  os << std::endl;
}

void run_pop_interference(const report::SweepContext& ctx) {
  core::BatchGrid grid;
  grid.base = base_config(workloads::WorkloadKind::kWhetstone, ctx.scale);
  grid.attacks.push_back({"baseline", nullptr});
  // Honest neighbors only (attacker fraction stays 0): any metering drift
  // is pure noisy-neighbor interference — timer ticks landing on whichever
  // tenant happens to hold the CPU. The victim also runs deprioritized
  // (nice 10) to show interference is worst for the tenant that yields.
  grid.population_sizes = {1, 4, 16};
  grid.nice_levels = {{Nice{0}, Nice{0}}, {Nice{10}, Nice{0}}};

  const auto cells = ctx.run_grid("pop_interference", std::move(grid));
  if (ctx.partial) return;

  std::ostream& os = ctx.os();
  os << "==== Noisy-neighbor interference on metering accuracy ====\n";
  os << "expectation: with honest neighbors the commodity meter's error "
        "grows with the population (tick attribution gets noisier) and a "
        "deprioritized victim fares worse; population 1 reproduces the "
        "classic single-victim cell exactly\n";
  os << "(cell aggregates over " << ctx.seeds.size() << " seed(s))\n\n";
  TextTable table({"population", "victim nice", "billed(s)", "true(s)",
                   "overcharge", "err p50/p90/p99(s)", "billed p50/p90/p99(s)"});
  for (const core::CellStats& c : cells) {
    table.add_row({std::to_string(c.population),
                   std::to_string(static_cast<int>(c.nice.victim.v)),
                   fmt_double(c.billed_seconds.mean()),
                   fmt_double(c.true_seconds.mean()),
                   fmt_stat(c.overcharge, 2) + "x",
                   fmt_quantiles(c.pop_billing_error),
                   fmt_quantiles(c.pop_billed_seconds)});
  }
  table.render(os);
  os << std::endl;
}

void run_pop_detection(const report::SweepContext& ctx) {
  core::BatchGrid grid;
  grid.base = base_config(workloads::WorkloadKind::kWhetstone, ctx.scale);
  grid.attacks.push_back({"baseline", nullptr});
  // Fixed 16-tenant cells with a growing attacker share; the auditor's
  // per-tenant divergence check (core/auditor.hpp) flags tenants whose
  // tick bill strays from their cycle truth, and the cell aggregates the
  // flag counts into a TPR/FPR point per fraction.
  grid.population_sizes = {16};
  grid.attacker_fractions = {0.0, 0.125, 0.25, 0.5};

  const auto cells = ctx.run_grid("pop_detection", std::move(grid));
  if (ctx.partial) return;

  std::ostream& os = ctx.os();
  os << "==== Auditor detection ROC vs. attacker fraction ====\n";
  os << "expectation: the divergence auditor's true-positive rate holds as "
        "the attacker share grows while honest tenants stay below the "
        "tolerance (low FPR); at fraction 0 both rates are trivially 0\n";
  os << "(cell aggregates over " << ctx.seeds.size() << " seed(s))\n\n";
  TextTable table({"attacker fraction", "attackers", "flagged atk",
                   "flagged honest", "TPR", "FPR", "advantage mean(s)"});
  for (const core::CellStats& c : cells) {
    table.add_row({fmt_double(c.attacker_fraction, 3),
                   fmt_double(c.pop_attackers.mean(), 1),
                   fmt_double(c.pop_flagged_attackers.mean(), 1),
                   fmt_double(c.pop_flagged_honest.mean(), 1),
                   fmt_stat(c.pop_detection_tpr, 2),
                   fmt_stat(c.pop_detection_fpr, 2),
                   fmt_double(c.pop_attacker_advantage_mean.mean(), 4)});
  }
  table.render(os);
  os << std::endl;
}

}  // namespace

void register_populations(report::SweepRegistry& registry) {
  registry.add({"pop_billing_gap",
                "Population — per-tenant billing-gap distribution vs. cell size",
                run_pop_billing_gap});
  registry.add({"pop_interference",
                "Population — noisy-neighbor interference on metering accuracy",
                run_pop_interference});
  registry.add({"pop_detection",
                "Population — auditor detection ROC vs. attacker fraction",
                run_pop_detection});
}

}  // namespace mtr::bench
