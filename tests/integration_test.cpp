// Cross-module integration and failure-injection scenarios that go beyond
// the per-module suites: control-flow tampering vs the
// execution witness, auditor anomaly screens, kill/zombie/reparenting
// races, and CFS end-to-end runs.
#include <gtest/gtest.h>

#include "attacks/flooding_attacks.hpp"
#include "attacks/launch_attacks.hpp"
#include "attacks/thrashing_attack.hpp"
#include "core/auditor.hpp"
#include "core/experiment.hpp"
#include "core/trusted_metering.hpp"
#include "exec/loader.hpp"
#include "helpers.hpp"
#include "workloads/stdlibs.hpp"

namespace mtr {
namespace {

using workloads::WorkloadKind;

// --- execution integrity vs a pure control-flow tamper ------------------------------

TEST(ExecutionIntegrity, DetectsControlFlowTamperWithCleanSources) {
  // The server reroutes the program through a longer path (paper §VI-B:
  // control-data attacks) without mapping any foreign code: source
  // integrity stays clean, only the witness can catch it.
  auto make_image = [](bool tampered) {
    exec::ImageSpec img;
    img.path = "/bin/victim";
    img.content_tag = "victim#1.0";  // same bytes measured either way
    img.needed_libs = {"libc"};
    img.main_program = [tampered](const exec::SymbolTable&) {
      std::vector<kernel::Step> steps;
      const int iterations = tampered ? 12 : 8;  // extra loop iterations
      for (int i = 0; i < iterations; ++i)
        steps.push_back(exec::compute(seconds_to_cycles(0.004, CpuHz{}),
                                      "victim.loop"));
      return exec::make_step_list("victim", std::move(steps))();
    };
    return img;
  };

  auto run_one = [&](bool tampered) {
    sim::Simulation s;
    core::SourceIntegrityMonitor source;
    core::ExecutionIntegrityMonitor execution;
    source.allow(workloads::kLibcTag);
    source.allow(workloads::kBashTag);
    source.allow("victim#1.0");
    s.kernel().add_hook(&source);
    s.kernel().add_hook(&execution);
    const Pid pid = s.launch(make_image(tampered));
    s.run_until_exit(pid);
    const Tgid tg = s.kernel().process(pid).tgid;
    return std::tuple{source.verify(tg).ok, execution.witness(tg),
                      s.usage_of(pid)};
  };

  const auto [clean_src, clean_witness, clean_usage] = run_one(false);
  const auto [tampered_src, tampered_witness, tampered_usage] = run_one(true);

  EXPECT_TRUE(clean_src);
  EXPECT_TRUE(tampered_src);  // no foreign code: source integrity is blind
  EXPECT_NE(clean_witness, tampered_witness);  // the witness is not
  // And the tamper pays off for the server: ~50% more billed time.
  EXPECT_GT(tampered_usage.true_cycles.total().v,
            clean_usage.true_cycles.total().v);
}

// --- auditor anomaly screens catch the stime-inflating attacks ----------------------

TEST(AuditorScreens, StimeShareFlagsThrashing) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.05);
  attacks::ThrashingAttack attack;
  const auto hit = core::run_experiment(cfg, &attack);

  core::TrustedMeteringService service(core::Tariff{}, cfg.sim.kernel.cpu,
                                       cfg.sim.kernel.hz);
  core::AuditExpectations exp;
  exp.tpm_key = service.tpm().verification_key();
  exp.nonce = 9;
  // A CPU-bound job should show almost no stime; tighten the screen.
  exp.stime_share_threshold = 0.08;
  core::Auditor auditor(exp);
  core::SignedUsageReport report;
  report.nonce = 9;
  report.quote = service.tpm().quote(0, 9, "p");

  const double stime_share = hit.billed_system_seconds / hit.billed_seconds;
  const auto audit = auditor.audit(report, hit.source_verdict, hit.witness,
                                   hit.billed_seconds, hit.billed_seconds,
                                   stime_share, 0.0);
  bool flagged = false;
  for (const auto& f : audit.findings)
    if (f.check == "stime-share") flagged = !f.ok;
  EXPECT_TRUE(flagged);
}

// --- failure injection ----------------------------------------------------------------

TEST(FailureInjection, VictimKilledMidAttackLeavesConsistentAccounting) {
  sim::Simulation s;
  const auto info = workloads::make_workload(WorkloadKind::kPi, {0.05});
  const Pid pid = s.launch(info.image);
  s.run_for(seconds_to_cycles(0.3, CpuHz{}));
  s.kernel().force_kill(pid);
  s.run_for(seconds_to_cycles(0.1, CpuHz{}));
  EXPECT_TRUE(s.exited(pid));
  // Accounting survives the violent death: charged ticks == fired ticks.
  Ticks charged = s.kernel().idle_ticks();
  for (const Pid p : s.kernel().all_pids())
    charged += s.kernel().process(p).usage.ticks.total();
  EXPECT_EQ(charged.v, s.kernel().timer().ticks_fired());
}

TEST(FailureInjection, KillingStoppedTraceeWorks) {
  sim::Simulation s;
  const auto info = workloads::make_workload(WorkloadKind::kOurs, {0.05});
  const Pid victim = s.launch(info.image);
  attacks::ThrashingAttack attack;
  attacks::AttackContext ctx{s, victim, s.kernel().process(victim).tgid,
                             info.hot_addr};
  attack.engage(ctx);
  s.run_for(seconds_to_cycles(0.2, CpuHz{}));
  // Kill the victim while it is likely in a trace stop.
  s.kernel().force_kill(victim);
  s.run_for(seconds_to_cycles(0.2, CpuHz{}));
  EXPECT_TRUE(s.exited(victim));
  attack.disengage(ctx);
  s.run_all(seconds_to_cycles(0.5, CpuHz{}));
}

TEST(FailureInjection, HogOutlivedByVictimThenKilled) {
  auto cfg = test::quick_experiment(WorkloadKind::kOurs, 0.03);
  cfg.sim.kernel.ram_frames = 2'048;
  attacks::ExceptionFloodParams params;
  params.hog_pages = 4'096;
  attacks::ExceptionFloodAttack attack(params);
  const auto r = core::run_experiment(cfg, &attack);
  EXPECT_TRUE(r.victim_exited);  // disengage killed the hog afterwards
}

TEST(FailureInjection, SegvTerminatesWithSignalCode) {
  sim::Simulation s;
  kernel::SpawnSpec spec;
  spec.name = "victim";
  spec.program = exec::make_step_list(
      "victim", {exec::compute(seconds_to_cycles(1.0, CpuHz{}))});
  const Pid victim = s.spawn(std::move(spec));
  kernel::SpawnSpec killer_spec;
  killer_spec.name = "killer";
  killer_spec.program = exec::make_step_list(
      "killer", {exec::syscall(kernel::SysKill{victim, kernel::Signal::kSegv})});
  s.spawn(std::move(killer_spec));
  s.run_all(seconds_to_cycles(1.0, CpuHz{}));
  EXPECT_EQ(s.kernel().process(victim).exit_code, 128 + 11);
}

// --- CFS end-to-end ---------------------------------------------------------------------

TEST(CfsIntegration, AttacksStillInflateUnderCfs) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.03,
                                    sim::SchedulerKind::kCfs);
  const auto base = core::run_experiment(cfg);
  attacks::ShellAttack attack(seconds_to_cycles(0.2, CpuHz{}));
  const auto hit = core::run_experiment(cfg, &attack);
  EXPECT_NEAR(hit.billed_seconds - base.billed_seconds, 0.2, 0.05);
}

TEST(CfsIntegration, InterruptFloodInflatesStimeUnderCfs) {
  auto cfg = test::quick_experiment(WorkloadKind::kOurs, 0.04,
                                    sim::SchedulerKind::kCfs);
  const auto base = core::run_experiment(cfg);
  attacks::InterruptFloodAttack attack(50'000.0);
  const auto hit = core::run_experiment(cfg, &attack);
  EXPECT_GT(hit.billed_system_seconds, base.billed_system_seconds + 0.05);
}

// --- multi-tenant conservation -----------------------------------------------------------

TEST(MultiTenant, TwoJobsSplitTheMachineAndBothBillHonestly) {
  sim::Simulation s;
  const auto job_a = workloads::make_workload(WorkloadKind::kOurs, {0.02});
  const auto job_b = workloads::make_workload(WorkloadKind::kPi, {0.02});
  const Pid a = s.launch(job_a.image);
  const Pid b = s.launch(job_b.image);
  ASSERT_TRUE(s.run_until_exit(a));
  ASSERT_TRUE(s.run_until_exit(b));
  for (const Pid pid : {a, b}) {
    const auto u = s.usage_of(pid);
    const double billed = ticks_to_seconds(u.ticks.total(), TimerHz{});
    const double truth = cycles_to_seconds(u.true_cycles.total(), CpuHz{});
    EXPECT_NEAR(billed / truth, 1.0, 0.12);
  }
}

TEST(MultiTenant, SameImageLaunchedTwiceIsTwoJobs) {
  // The second launch comes after the first job has exited, so a process
  // already bears the image's name when the second shell forks.
  sim::Simulation s;
  const auto job = workloads::make_workload(WorkloadKind::kPi, {0.02});
  const Pid first = s.launch(job.image);
  ASSERT_TRUE(s.run_until_exit(first));
  const kernel::Usage first_bill = s.usage_of(first);
  const std::size_t issued = s.kernel().all_pids().size();

  const Pid second = s.launch(job.image);
  EXPECT_GT(second.v, static_cast<std::int32_t>(issued));
  EXPECT_FALSE(s.exited(second));
  EXPECT_EQ(s.kernel().process(second).name, job.image.path);
  ASSERT_TRUE(s.run_until_exit(second));

  // Billed separately: the first job's bill stands, and the second job
  // pays for its own run of the same work.
  const kernel::Usage second_bill = s.usage_of(second);
  EXPECT_NE(s.kernel().process(second).tgid, s.kernel().process(first).tgid);
  EXPECT_EQ(s.usage_of(first).true_cycles.total(), first_bill.true_cycles.total());
  EXPECT_EQ(s.usage_of(first).ticks.total(), first_bill.ticks.total());
  EXPECT_NEAR(static_cast<double>(second_bill.true_cycles.user.v),
              static_cast<double>(first_bill.true_cycles.user.v),
              0.05 * static_cast<double>(first_bill.true_cycles.user.v));
}

}  // namespace
}  // namespace mtr
