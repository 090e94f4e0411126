// Attack-effect tests: each attack from §IV inflates the victim's bill the
// way the paper reports, the fine-grained/process-aware meters resist where
// the analysis says they should, and the integrity monitors detect the
// launch-time attacks.
#include <gtest/gtest.h>

#include "attacks/flooding_attacks.hpp"
#include "attacks/launch_attacks.hpp"
#include "attacks/scheduling_attack.hpp"
#include "attacks/thrashing_attack.hpp"
#include "core/integrity.hpp"
#include "helpers.hpp"

namespace mtr {
namespace {

using attacks::ExceptionFloodAttack;
using attacks::InterruptFloodAttack;
using attacks::LibraryCtorAttack;
using attacks::LibraryInterpositionAttack;
using attacks::SchedulingAttack;
using attacks::SchedulingAttackParams;
using attacks::ShellAttack;
using attacks::ThrashingAttack;
using workloads::WorkloadKind;

constexpr double kSecond = 1.0;

Cycles payload_cycles(double seconds) {
  return seconds_to_cycles(seconds, CpuHz{});
}

// --- A1: shell attack -------------------------------------------------------

TEST(ShellAttackTest, InflatesUserTimeByPayload) {
  auto cfg = test::quick_experiment(WorkloadKind::kOurs, 0.02);
  const auto base = core::run_experiment(cfg);
  ShellAttack attack(payload_cycles(0.3 * kSecond));
  const auto hit = core::run_experiment(cfg, &attack);

  EXPECT_NEAR(hit.billed_user_seconds - base.billed_user_seconds, 0.3, 0.03);
  EXPECT_NEAR(hit.billed_system_seconds, base.billed_system_seconds, 0.02);
  // The payload cycles really ran inside PT, so billed ≈ true here; the
  // theft is that they were not T's instructions. Granularity-based meters
  // cannot see that — source integrity is the defense.
  EXPECT_NEAR(hit.overcharge, 1.0, 0.05);
  EXPECT_TRUE(base.source_verdict.ok);
  EXPECT_FALSE(hit.source_verdict.ok);
}

TEST(ShellAttackTest, TamperedShellAppearsInViolations) {
  auto cfg = test::quick_experiment(WorkloadKind::kPi, 0.02);
  ShellAttack attack(payload_cycles(0.05));
  const auto hit = core::run_experiment(cfg, &attack);
  ASSERT_FALSE(hit.source_verdict.violations.empty());
  bool found = false;
  for (const auto& v : hit.source_verdict.violations)
    found = found || v.find(ShellAttack::kTamperedShellTag) != std::string::npos;
  EXPECT_TRUE(found);
}

TEST(ShellAttackTest, WitnessDivergesFromBaseline) {
  auto cfg = test::quick_experiment(WorkloadKind::kOurs, 0.02);
  const auto base = core::run_experiment(cfg);
  ShellAttack attack(payload_cycles(0.05));
  const auto hit = core::run_experiment(cfg, &attack);
  EXPECT_NE(base.witness, hit.witness);
}

// --- A2: library constructor attack ----------------------------------------------

TEST(LibraryCtorAttackTest, CtorAndDtorPayloadsBilled) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.02);
  const auto base = core::run_experiment(cfg);
  LibraryCtorAttack attack(payload_cycles(0.2), payload_cycles(0.1));
  const auto hit = core::run_experiment(cfg, &attack);
  EXPECT_NEAR(hit.billed_user_seconds - base.billed_user_seconds, 0.3, 0.03);
  EXPECT_FALSE(hit.source_verdict.ok);
}

TEST(LibraryCtorAttackTest, EquivalentToShellAttackInEffect) {
  // Fig. 5 "not surprisingly almost identical to Fig. 4": same payload at a
  // different location.
  auto cfg = test::quick_experiment(WorkloadKind::kPi, 0.02);
  ShellAttack shell(payload_cycles(0.25));
  LibraryCtorAttack ctor(payload_cycles(0.25));
  const auto a = core::run_experiment(cfg, &shell);
  const auto b = core::run_experiment(cfg, &ctor);
  EXPECT_NEAR(a.billed_user_seconds, b.billed_user_seconds, 0.05);
}

// --- A3: function substitution ------------------------------------------------------

TEST(LibraryInterpositionTest, AmplifiedByCallFrequency) {
  // Whetstone calls sqrt per iteration; Ours imports nothing — the same
  // per-call payload must hit W hard and O not at all.
  auto w_cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.02);
  auto o_cfg = test::quick_experiment(WorkloadKind::kOurs, 0.02);
  const auto w_base = core::run_experiment(w_cfg);
  const auto o_base = core::run_experiment(o_cfg);
  LibraryInterpositionAttack w_attack(Cycles{400'000});
  LibraryInterpositionAttack o_attack(Cycles{400'000});
  const auto w_hit = core::run_experiment(w_cfg, &w_attack);
  const auto o_hit = core::run_experiment(o_cfg, &o_attack);

  const double w_delta = w_hit.billed_user_seconds - w_base.billed_user_seconds;
  const double o_delta = o_hit.billed_user_seconds - o_base.billed_user_seconds;
  EXPECT_GT(w_delta, 0.05);
  EXPECT_LT(o_delta, 0.02);
  EXPECT_FALSE(w_hit.source_verdict.ok);
}

TEST(LibraryInterpositionTest, PayloadScalesLinearly) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.02);
  const auto base = core::run_experiment(cfg);
  LibraryInterpositionAttack small(Cycles{200'000});
  LibraryInterpositionAttack large(Cycles{600'000});
  const auto s = core::run_experiment(cfg, &small);
  const auto l = core::run_experiment(cfg, &large);
  const double ds = s.billed_user_seconds - base.billed_user_seconds;
  const double dl = l.billed_user_seconds - base.billed_user_seconds;
  EXPECT_NEAR(dl / ds, 3.0, 0.5);
}

// --- A4: scheduling attack -----------------------------------------------------------

TEST(SchedulingAttackTest, TransfersAttackerTimeToVictim) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.05);
  const auto base = core::run_experiment(cfg);

  SchedulingAttackParams params;
  params.nice = Nice{-20};
  params.total_forks = 3000;
  SchedulingAttack attack(params);
  const auto hit = core::run_experiment(cfg, &attack);

  // The victim's bill inflates beyond its true consumption…
  EXPECT_GT(hit.overcharge, 1.05);
  // …while its true consumption is unchanged…
  EXPECT_NEAR(hit.true_seconds, base.true_seconds, 0.05);
  // …and the attacker's own bill shows almost nothing.
  EXPECT_LT(hit.attacker_billed_seconds, 0.2 * hit.attacker_true_seconds + 0.02);
  // Conservation (paper: "the sum of them almost remains the same").
  EXPECT_NEAR(hit.billed_seconds + hit.attacker_billed_seconds,
              hit.true_seconds + hit.attacker_true_seconds, 0.10);
}

TEST(SchedulingAttackTest, FineGrainedMetersImmune) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.05);
  const auto base = core::run_experiment(cfg);
  SchedulingAttackParams params;
  params.nice = Nice{-20};
  params.total_forks = 3000;
  SchedulingAttack attack(params);
  const auto hit = core::run_experiment(cfg, &attack);
  // The TSC meter charges exact cycles: no inflation.
  EXPECT_NEAR(hit.tsc_seconds, base.tsc_seconds, 0.05);
  EXPECT_NEAR(hit.pais_seconds, base.pais_seconds, 0.05);
  // Source integrity has nothing to flag — no foreign code in PT.
  EXPECT_TRUE(hit.source_verdict.ok);
  EXPECT_EQ(hit.witness, base.witness);
}

TEST(SchedulingAttackTest, UnprivilegedRenicelsDeniedButAttackStillBites) {
  // The paper's attacker needs root to renice itself. Our generalized
  // attacker (tick-aligned yields) also exploits the O(1) interactivity
  // bonus, so even with the renice denied (EPERM) it extracts a transfer —
  // a strictly stronger result than the paper's; see EXPERIMENTS.md.
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.05);
  SchedulingAttackParams weak;
  weak.nice = Nice{-20};
  weak.total_forks = 3000;
  weak.privileged = false;  // setpriority fails: stays at nice 0
  SchedulingAttack a_weak(weak);
  const auto r_weak = core::run_experiment(cfg, &a_weak);
  EXPECT_GT(r_weak.overcharge, 1.04);
  // The EPERM itself is enforced: the attacker record still shows nice 0.
  // (Verified in kernel_test's NiceChangeRequiresPrivilege.)
}

TEST(SchedulingAttackTest, IneffectiveAgainstMultithreadedBrute) {
  // Fig. 8: the accounting error spreads across Brute's workers and the
  // relative inflation collapses.
  auto w_cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.05);
  auto b_cfg = test::quick_experiment(WorkloadKind::kBrute, 0.05);
  SchedulingAttackParams params;
  params.nice = Nice{-20};
  params.total_forks = 3000;
  SchedulingAttack a1(params);
  SchedulingAttack a2(params);
  const auto w = core::run_experiment(w_cfg, &a1);
  const auto b = core::run_experiment(b_cfg, &a2);
  // Direction matches the paper; the magnitude of the dilution is smaller
  // in our O(1) model than on the paper's CFS testbed (see EXPERIMENTS.md).
  EXPECT_LT(b.overcharge, w.overcharge);
}

TEST(SchedulingAttackTest, WatchedWitnessMatchesAllGroupsUnderForkStorm) {
  // Two monitors on one kernel: one chains every group, one only the
  // victim's. The fork storm's children step too, but the victim's witness
  // must not depend on whether they were chained — under either engine.
  for (const bool event_driven : {true, false}) {
    SCOPED_TRACE(event_driven ? "event engine" : "slice engine");
    sim::SimConfig cfg = test::small_machine();
    cfg.kernel.event_driven = event_driven;
    sim::Simulation s(cfg);
    core::ExecutionIntegrityMonitor all;
    core::ExecutionIntegrityMonitor watching;
    s.kernel().add_hook(&all);
    s.kernel().add_hook(&watching);

    SchedulingAttackParams params;
    params.nice = Nice{-20};
    params.total_forks = 3000;
    SchedulingAttack attack(params);
    const auto info = workloads::make_workload(WorkloadKind::kBrute, {0.05});
    sim::LaunchOptions opts;
    attack.prepare(s, opts);
    const Pid victim = s.launch(info.image, std::move(opts));
    const Tgid tg = s.kernel().process(victim).tgid;
    watching.watch(tg);
    attacks::AttackContext ctx{s, victim, tg, info.hot_addr};
    attack.engage(ctx);
    ASSERT_TRUE(s.run_until_exit(victim));
    attack.disengage(ctx);
    s.run_all(seconds_to_cycles(5.0, CpuHz{}));

    EXPECT_EQ(watching.witness(tg), all.witness(tg));
    EXPECT_EQ(watching.step_count(tg), all.step_count(tg));
    EXPECT_GT(watching.step_count(tg), 0u);

    std::size_t victim_threads = 0;
    for (const Pid pid : s.kernel().all_pids())
      if (s.kernel().process(pid).tgid == tg) ++victim_threads;
    EXPECT_GT(victim_threads, 1u);  // Brute's workers are threads of the group
    EXPECT_EQ(watching.chains(), victim_threads);
    EXPECT_GT(all.chains(), victim_threads + 1000);  // the forks were chained
    EXPECT_THROW(watching.witness(s.kernel().process(attack.attacker_pid()).tgid),
                 InvariantError);
  }
}

// --- A5: thrashing ---------------------------------------------------------------------

TEST(ThrashingAttackTest, InflatesSystemTime) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.05);
  const auto base = core::run_experiment(cfg);
  ThrashingAttack attack;
  const auto hit = core::run_experiment(cfg, &attack);

  EXPECT_GT(hit.debug_exceptions, 100u);
  // Mostly stime (paper Fig. 9), utime essentially unchanged.
  EXPECT_GT(hit.billed_system_seconds, base.billed_system_seconds + 0.1);
  EXPECT_NEAR(hit.billed_user_seconds, base.billed_user_seconds, 0.1);
}

TEST(ThrashingAttackTest, PaisReattributesToTracer) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.05);
  const auto base = core::run_experiment(cfg);
  ThrashingAttack attack;
  const auto hit = core::run_experiment(cfg, &attack);
  // The commodity bill inflates; the process-aware bill stays near baseline.
  EXPECT_GT(hit.billed_seconds - base.billed_seconds, 0.1);
  EXPECT_NEAR(hit.pais_seconds, base.pais_seconds, 0.08);
}

TEST(ThrashingAttackTest, LsmPolicyBlocksUnprivilegedTracer) {
  auto cfg = test::quick_experiment(WorkloadKind::kOurs, 0.02);
  cfg.sim.kernel.ptrace_policy = kernel::PtracePolicy::kPrivilegedOnly;
  attacks::ThrashingAttackParams params;
  params.privileged = false;
  ThrashingAttack attack(params);
  const auto hit = core::run_experiment(cfg, &attack);
  EXPECT_EQ(hit.debug_exceptions, 0u);
  EXPECT_LT(hit.overcharge, 1.05);
}

TEST(ThrashingAttackTest, VictimSurvivesTracerKill) {
  // Failure injection: the tracer dies mid-attack (disengage kills it);
  // the victim must still finish.
  auto cfg = test::quick_experiment(WorkloadKind::kPi, 0.02);
  ThrashingAttack attack;
  const auto hit = core::run_experiment(cfg, &attack);
  EXPECT_TRUE(hit.victim_exited);
}

// --- A6a: interrupt flood ---------------------------------------------------------------

TEST(InterruptFloodTest, InflatesSystemTimeSlightly) {
  auto cfg = test::quick_experiment(WorkloadKind::kOurs, 0.05);
  const auto base = core::run_experiment(cfg);
  InterruptFloodAttack attack(50'000.0);
  const auto hit = core::run_experiment(cfg, &attack);

  EXPECT_GT(hit.nic_packets, 1000u);
  EXPECT_GT(hit.billed_system_seconds, base.billed_system_seconds + 0.05);
  // The paper calls this one of the weakest attacks; utime barely moves.
  EXPECT_NEAR(hit.billed_user_seconds, base.billed_user_seconds, 0.15);
}

TEST(InterruptFloodTest, PaisChargesNobodyForJunkPackets) {
  auto cfg = test::quick_experiment(WorkloadKind::kOurs, 0.05);
  const auto base = core::run_experiment(cfg);
  InterruptFloodAttack attack(50'000.0);
  const auto hit = core::run_experiment(cfg, &attack);
  EXPECT_NEAR(hit.pais_seconds, base.pais_seconds, 0.05);
  EXPECT_GT(hit.billed_seconds, hit.pais_seconds + 0.05);
}

TEST(InterruptFloodTest, EffectScalesWithRate) {
  auto cfg = test::quick_experiment(WorkloadKind::kOurs, 0.05);
  InterruptFloodAttack slow(10'000.0);
  InterruptFloodAttack fast(80'000.0);
  const auto r_slow = core::run_experiment(cfg, &slow);
  const auto r_fast = core::run_experiment(cfg, &fast);
  EXPECT_GT(r_fast.billed_system_seconds, r_slow.billed_system_seconds);
}

// --- A6b: exception flood ----------------------------------------------------------------

TEST(ExceptionFloodTest, CausesMajorFaultsAndStime) {
  auto cfg = test::quick_experiment(WorkloadKind::kPi, 0.15);
  cfg.sim.kernel.ram_frames = 2'048;  // small RAM sharpens the pressure
  const auto base = core::run_experiment(cfg);
  attacks::ExceptionFloodParams params;
  params.hog_pages = 4'096;
  ExceptionFloodAttack attack(params);
  const auto hit = core::run_experiment(cfg, &attack);

  EXPECT_GT(hit.major_faults, base.major_faults + 20);
  EXPECT_GT(hit.billed_system_seconds, base.billed_system_seconds);
  // Turnaround stretches far more than CPU time (paper §IV-B2 remark).
  EXPECT_GT(hit.wall_seconds, base.wall_seconds * 1.05);
}

TEST(ExceptionFloodTest, VictimSurvivesAndCompletes) {
  auto cfg = test::quick_experiment(WorkloadKind::kOurs, 0.1);
  cfg.sim.kernel.ram_frames = 2'048;
  attacks::ExceptionFloodParams params;
  params.hog_pages = 4'096;
  ExceptionFloodAttack attack(params);
  const auto hit = core::run_experiment(cfg, &attack);
  EXPECT_TRUE(hit.victim_exited);
}

// --- cross-cutting -----------------------------------------------------------------------

TEST(AttackMetadata, PhasesMatchThePaper) {
  ShellAttack a1(Cycles{1});
  LibraryCtorAttack a2(Cycles{1});
  SchedulingAttack a4(SchedulingAttackParams{});
  ThrashingAttack a5;
  EXPECT_EQ(a1.phase(), "launch");
  EXPECT_EQ(a2.phase(), "launch");
  EXPECT_EQ(a4.phase(), "runtime");
  EXPECT_EQ(a5.phase(), "runtime");
}

}  // namespace
}  // namespace mtr
