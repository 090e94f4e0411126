// Shared nice-value sweep harness for the scheduling-attack figures
// (Fig. 7 on Whetstone, Fig. 8 on Brute). One BatchRunner grid — no-attack
// baseline plus the Fork attacker at five nice levels, replicate seeds per
// cell — streamed through the driver's sinks.
#pragma once

#include <memory>

#include "bench/attack_roster.hpp"
#include "bench/bench_util.hpp"

namespace mtr::bench {

/// The paper's leftmost bars: the Fork program running by itself.
inline std::pair<double, double> fork_alone(double scale) {
  sim::Simulation s;
  const Pid pid = attacks::SchedulingAttack::spawn_standalone(
      s, fork_params(scale, 0));
  s.run_until_exit(pid);
  const auto u = s.usage_of(pid);
  return {ticks_to_seconds(u.ticks.total(), TimerHz{}),
          cycles_to_seconds(u.true_cycles.total(), CpuHz{})};
}

inline void run_sched_sweep(const report::SweepContext& ctx, const std::string& sweep,
                            workloads::WorkloadKind kind, const char* figure_title) {
  const double scale = ctx.scale;
  const std::vector<int> nices = {0, -5, -10, -15, -20};

  core::BatchGrid grid;
  grid.base = base_config(kind, scale);
  grid.seeds = ctx.seeds;
  grid.attacks.push_back({"no attack", nullptr});
  for (const int nice : nices) {
    grid.attacks.push_back(
        {nice == 0 ? "nice" : "nice" + std::to_string(nice), [nice, scale] {
           return std::make_unique<attacks::SchedulingAttack>(
               fork_params(scale, nice));
         }});
  }

  ctx.begin_progress(sweep, grid.attacks.size());
  const auto cells = ctx.run_grid(sweep, std::move(grid));
  // Partial cell sets (shard/resume/dry run) skip the rendering — and the
  // fork_alone baseline simulation it exists for.
  if (ctx.partial) return;
  // The baseline row pairs the unattacked victim with Fork running alone.
  const auto [fork_billed, fork_true] = fork_alone(scale);

  std::ostream& os = ctx.os();
  os << "==== " << figure_title << " ====\n"
     << "victim = " << workloads::long_name(kind)
     << "; Fork = fork/wait bursts + mid-jiffy relinquish; sweep = "
        "Fork's nice value\n"
     << "(cell means over " << ctx.seeds.size() << " seed(s))\n\n";

  const auto fork_billed_of = [&](const core::CellStats& c) {
    return c.attack_label == "no attack" ? fork_billed
                                         : c.attacker_billed_seconds.mean();
  };
  const auto fork_true_of = [&](const core::CellStats& c) {
    return c.attack_label == "no attack" ? fork_true
                                         : c.attacker_true_seconds.mean();
  };

  BarChart chart(std::string(figure_title) +
                 " — stacked CPU time (U = victim, S = Fork)");
  for (const core::CellStats& c : cells)
    chart.add({c.attack_label, c.billed_seconds.mean(), fork_billed_of(c)});
  chart.render(os);

  os << '\n';
  TextTable table({"nice of Fork", "victim_billed(s)", "victim_true(s)",
                   "fork_billed(s)", "fork_true(s)", "sum_billed(s)", "sum_true(s)",
                   "victim_overcharge"});
  for (const core::CellStats& c : cells) {
    const double vb = c.billed_seconds.mean();
    const double vt = c.true_seconds.mean();
    const double fb = fork_billed_of(c);
    const double ft = fork_true_of(c);
    table.add_row({c.attack_label, fmt_double(vb), fmt_double(vt), fmt_double(fb),
                   fmt_double(ft), fmt_double(vb + fb), fmt_double(vt + ft),
                   fmt_stat(c.overcharge, 2) + "x"});
  }
  table.render(os);
  os << std::endl;
}

}  // namespace mtr::bench
