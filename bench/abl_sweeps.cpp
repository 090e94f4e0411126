// Scenario-axis ablations (ROADMAP "sweep dimensions worth opening"): each
// sweep opens one of the BatchGrid scenario axes — CPU frequency, RAM size
// / reclaim batch, ptrace policy, jiffy-resolution timers — against the
// attack that axis modulates, next to the baseline. The paper's
// billed-vs-consumed gap is sensitive to all four: tick yield scales with
// cycles per tick (cpu), fault pressure with memory (ram), the thrashing
// attack lives or dies by the LSM gate (ptrace), and the scheduling attack
// needs timeouts that ride the jiffy tick (jiffy_timers).
#include <memory>

#include "bench/attack_roster.hpp"
#include "bench/bench_util.hpp"
#include "bench/sweeps.hpp"

namespace mtr::bench {
namespace {

/// Shared two-column ablation rendering: one row per cell, the opened
/// axis rendered by `axis_of`, bills as cell means.
void render_ablation(std::ostream& os, const std::string& title,
                     const std::string& note, const char* axis_header,
                     const std::vector<core::CellStats>& cells,
                     const std::function<std::string(const core::CellStats&)>& axis_of,
                     std::size_t n_seeds) {
  os << "==== " << title << " ====\n";
  if (!note.empty()) os << note << "\n";
  os << "(cell means over " << n_seeds << " seed(s))\n\n";
  TextTable table({"attack", axis_header, "billed(s)", "true(s)", "tsc(s)",
                   "pais(s)", "overcharge", "majflt", "dbgexc"});
  for (const core::CellStats& c : cells) {
    table.add_row({c.attack_label, axis_of(c), fmt_double(c.billed_seconds.mean()),
                   fmt_double(c.true_seconds.mean()),
                   fmt_double(c.tsc_seconds.mean()),
                   fmt_double(c.pais_seconds.mean()),
                   fmt_stat(c.overcharge, 2) + "x",
                   fmt_double(c.major_faults.mean(), 1),
                   fmt_double(c.debug_exceptions.mean(), 1)});
  }
  table.render(os);
  os << std::endl;
}

void run_abl_cpufreq(const report::SweepContext& ctx) {
  core::BatchGrid grid;
  grid.base = base_config(workloads::WorkloadKind::kWhetstone, ctx.scale);
  grid.attacks.push_back({"baseline", nullptr});
  grid.attacks.push_back({"scheduling", roster_attack(ctx.scale, "scheduling")});
  // Around the paper's E7200 @ 2.53 GHz: a slower and a faster part. HZ is
  // fixed, so cycles-per-tick — the quantum the scheduling attack dodges —
  // scales directly with the axis.
  grid.cpu_freqs = {CpuHz{1'600'000'000}, CpuHz{2'530'000'000},
                    CpuHz{3'200'000'000}};

  const auto cells = ctx.run_grid("abl_cpufreq", std::move(grid));
  if (ctx.partial) return;
  render_ablation(
      ctx.os(), "CPU-frequency ablation — scheduling attack vs clock rate",
      "expectation: the commodity meter's overcharge persists at every "
      "frequency (the tick quantum scales with the clock); TSC stays honest",
      "cpu(GHz)", cells,
      [](const core::CellStats& c) {
        return fmt_double(static_cast<double>(c.cpu.v) / 1e9, 2);
      },
      ctx.seeds.size());
}

void run_abl_ramsize(const report::SweepContext& ctx) {
  core::BatchGrid grid;
  grid.base = base_config(workloads::WorkloadKind::kWhetstone, ctx.scale);
  grid.attacks.push_back({"baseline", nullptr});
  grid.attacks.push_back(
      {"exception-flood", roster_attack(ctx.scale, "exception-flood")});
  // Fig. 11 scale ("hog maps 1.5x RAM"): tighter machines fault harder.
  // The reclaim batch shrinks with RAM, as kswapd tuning would.
  grid.ram = {{4 * 1024, 64}, {8 * 1024, 128}, {16 * 1024, 256}};

  const auto cells = ctx.run_grid("abl_ramsize", std::move(grid));
  if (ctx.partial) return;
  render_ablation(
      ctx.os(), "RAM-size ablation — exception flooding vs memory pressure",
      "expectation: the victim's major faults and billed stime climb as RAM "
      "shrinks; the baseline rows stay flat",
      "ram(frames/batch)", cells,
      [](const core::CellStats& c) {
        return std::to_string(c.ram.frames) + "/" +
               std::to_string(c.ram.reclaim_batch);
      },
      ctx.seeds.size());
}

void run_abl_ptrace(const report::SweepContext& ctx) {
  core::BatchGrid grid;
  grid.base = base_config(workloads::WorkloadKind::kWhetstone, ctx.scale);
  grid.attacks.push_back({"baseline", nullptr});
  // An unprivileged tracer: exactly what the LSM gate is meant to stop
  // (the paper's remark that the thrashing attack needs privileges the
  // security modules control).
  grid.attacks.push_back({"thrashing-unpriv", [] {
                            attacks::ThrashingAttackParams p;
                            p.privileged = false;
                            return std::make_unique<attacks::ThrashingAttack>(p);
                          }});
  grid.attacks.push_back({"thrashing-priv", roster_attack(ctx.scale, "thrashing")});
  grid.ptrace_policies = {kernel::PtracePolicy::kAllowAll,
                          kernel::PtracePolicy::kPrivilegedOnly};

  const auto cells = ctx.run_grid("abl_ptrace", std::move(grid));
  if (ctx.partial) return;
  render_ablation(
      ctx.os(), "Ptrace-policy ablation — thrashing attack vs the LSM gate",
      "expectation: privileged_only neutralizes the unprivileged tracer "
      "(debug exceptions collapse to baseline) but not the privileged one",
      "ptrace", cells,
      [](const core::CellStats& c) {
        return std::string(kernel::to_string(c.ptrace));
      },
      ctx.seeds.size());
}

void run_abl_jiffy_timer(const report::SweepContext& ctx) {
  core::BatchGrid grid;
  grid.base = base_config(workloads::WorkloadKind::kWhetstone, ctx.scale);
  grid.attacks.push_back({"baseline", nullptr});
  grid.attacks.push_back({"scheduling", roster_attack(ctx.scale, "scheduling")});
  // On = timeouts ride the tick (the attacker's wakeups align just after
  // it; its bursts dodge the next tick). Off = high-resolution expiry, the
  // §VI countermeasure knob.
  grid.jiffy_timers = {true, false};

  const auto cells = ctx.run_grid("abl_jiffy_timer", std::move(grid));
  if (ctx.partial) return;
  render_ablation(
      ctx.os(),
      "Jiffy-timer ablation — scheduling attack vs timer resolution",
      "expectation: with jiffy-resolution timers off the attacker's sleeps "
      "no longer snap to tick boundaries and the tick-dodging yield shrinks",
      "jiffy_timers", cells,
      [](const core::CellStats& c) {
        return std::string(c.jiffy_timers ? "on" : "off");
      },
      ctx.seeds.size());
}

}  // namespace

void register_ablations(report::SweepRegistry& registry) {
  registry.add({"abl_cpufreq",
                "Ablation — scheduling attack across CPU frequencies",
                run_abl_cpufreq});
  registry.add({"abl_ramsize",
                "Ablation — exception flooding across RAM size / reclaim batch",
                run_abl_ramsize});
  registry.add({"abl_ptrace",
                "Ablation — thrashing attack across ptrace (LSM) policies",
                run_abl_ptrace});
  registry.add({"abl_jiffy_timer",
                "Ablation — scheduling attack with jiffy-resolution timers on/off",
                run_abl_jiffy_timer});
}

}  // namespace mtr::bench
