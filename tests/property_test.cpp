// Parameterised property sweeps across tick rates, schedulers, seeds and
// attack strengths: the invariants behind the paper's argument, checked
// over the configuration space rather than at single points.
#include <gtest/gtest.h>

#include <tuple>

#include "attacks/launch_attacks.hpp"
#include "attacks/scheduling_attack.hpp"
#include "helpers.hpp"

namespace mtr {
namespace {

using workloads::WorkloadKind;

// --- tick-granularity sweep: accounting error shrinks as HZ grows -----------------

class TickGranularity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TickGranularity, CleanRunQuantizationErrorBounded) {
  auto cfg = test::quick_experiment(WorkloadKind::kPi, 0.02);
  cfg.sim.kernel.hz = TimerHz{GetParam()};
  const auto r = core::run_experiment(cfg);
  ASSERT_TRUE(r.victim_exited);
  // Error is at most a few ticks' worth of time either way.
  const double tick_s = 1.0 / static_cast<double>(GetParam());
  EXPECT_NEAR(r.billed_seconds, r.true_seconds, 8 * tick_s + 0.02);
}

TEST_P(TickGranularity, TickTotalsMatchTimerFireCount) {
  auto cfg = test::quick_experiment(WorkloadKind::kOurs, 0.02);
  cfg.sim.kernel.hz = TimerHz{GetParam()};
  sim::Simulation s(cfg.sim);
  const auto info = workloads::make_workload(WorkloadKind::kOurs, cfg.workload);
  const Pid pid = s.launch(info.image);
  ASSERT_TRUE(s.run_until_exit(pid));
  Ticks charged = s.kernel().idle_ticks();
  for (const Pid p : s.kernel().all_pids())
    charged += s.kernel().process(p).usage.ticks.total();
  EXPECT_EQ(charged.v, s.kernel().timer().ticks_fired());
}

INSTANTIATE_TEST_SUITE_P(Hz, TickGranularity, ::testing::Values(100u, 250u, 1000u),
                         [](const auto& info) {
                           return "hz" + std::to_string(info.param);
                         });

// --- scheduler × workload matrix: baseline honesty is policy-independent -----------

class SchedulerWorkload
    : public ::testing::TestWithParam<std::tuple<sim::SchedulerKind, WorkloadKind>> {};

TEST_P(SchedulerWorkload, BaselineBillsTrackTruth) {
  const auto [sched, kind] = GetParam();
  auto cfg = test::quick_experiment(kind, 0.015, sched);
  const auto r = core::run_experiment(cfg);
  ASSERT_TRUE(r.victim_exited);
  EXPECT_NEAR(r.overcharge, 1.0, 0.10);
  EXPECT_TRUE(r.source_verdict.ok);
  // TSC metering equals simulator ground truth in every configuration.
  EXPECT_NEAR(r.tsc_seconds, r.true_seconds, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchedulerWorkload,
    ::testing::Combine(::testing::Values(sim::SchedulerKind::kO1,
                                         sim::SchedulerKind::kCfs),
                       ::testing::Values(WorkloadKind::kOurs, WorkloadKind::kPi,
                                         WorkloadKind::kWhetstone,
                                         WorkloadKind::kBrute)),
    [](const auto& info) {
      return std::string(sim::to_string(std::get<0>(info.param))) + "_" +
             workloads::long_name(std::get<1>(info.param));
    });

// --- seed sweep: determinism per seed, meters conserve cycles ----------------------

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, CyclesConservedAcrossMeters) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.015);
  cfg.sim.kernel.seed = GetParam();
  const auto r = core::run_experiment(cfg);
  ASSERT_TRUE(r.victim_exited);
  // TSC == ground truth exactly; PAIS within it (re-attribution only moves
  // kernel work between accounts, never inflates the victim).
  EXPECT_EQ(r.tsc_cycles.total().v, r.true_cycles.total().v);
  EXPECT_LE(r.pais_cycles.total().v, r.true_cycles.total().v + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1u, 7u, 42u, 1337u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// --- attack-strength monotonicity ---------------------------------------------------

class PayloadSweep : public ::testing::TestWithParam<double> {};

TEST_P(PayloadSweep, ShellInflationMatchesPayload) {
  auto cfg = test::quick_experiment(WorkloadKind::kOurs, 0.02);
  const auto base = core::run_experiment(cfg);
  attacks::ShellAttack attack(seconds_to_cycles(GetParam(), CpuHz{}));
  const auto hit = core::run_experiment(cfg, &attack);
  EXPECT_NEAR(hit.billed_seconds - base.billed_seconds, GetParam(), 0.03);
}

INSTANTIATE_TEST_SUITE_P(Payloads, PayloadSweep, ::testing::Values(0.05, 0.1, 0.2),
                         [](const auto& info) {
                           // Append, not `"s" + ...`: GCC 12 -Wrestrict
                           // false-fires on char* + string&& under -O3.
                           std::string name = "s";
                           name += std::to_string(
                               static_cast<int>(info.param * 1000));
                           return name;
                         });

// --- scheduling-attack nice sweep: inflation grows with privilege ------------------

TEST(SchedulingNiceSweep, InflationPresentAcrossPriorities) {
  // The paper's testbed shows inflation growing with the attacker's
  // priority. In our model the interactivity bonus already grants the
  // tick-aligned attacker full preemption at nice 0, so the curve is flat
  // at its maximum instead of ramping — the attack is at least as strong
  // at every point of the sweep (deviation documented in EXPERIMENTS.md).
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.04);
  for (const int nice : {0, -10, -20}) {
    attacks::SchedulingAttackParams params;
    params.nice = Nice{static_cast<std::int8_t>(nice)};
    params.total_forks = 2500;
    attacks::SchedulingAttack attack(params);
    const auto r = core::run_experiment(cfg, &attack);
    EXPECT_GT(r.overcharge, 1.04) << "nice " << nice;
    EXPECT_LT(r.overcharge, 1.6) << "nice " << nice;
  }
}

// --- jiffy-timer ablation: the scheduling attack needs tick-aligned wakeups --------

TEST(JiffyTimerAblation, HrtimersBluntTheSchedulingAttack) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.04);
  attacks::SchedulingAttackParams params;
  params.nice = Nice{-20};
  params.total_forks = 2500;

  attacks::SchedulingAttack jiffy_attack(params);
  cfg.sim.kernel.jiffy_resolution_timers = true;
  const auto jiffy = core::run_experiment(cfg, &jiffy_attack);

  attacks::SchedulingAttack hr_attack(params);
  cfg.sim.kernel.jiffy_resolution_timers = false;
  const auto hr = core::run_experiment(cfg, &hr_attack);

  // With high-resolution wakeups the attacker's bursts drift across the
  // tick grid and it gets charged (closer to) its fair share.
  EXPECT_GT(jiffy.overcharge, hr.overcharge);
}

}  // namespace
}  // namespace mtr
