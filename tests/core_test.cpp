// Core metering/trust framework tests: meter cross-checks, integrity
// monitors, TPM quotes, billing and the customer-side auditor.
#include <gtest/gtest.h>

#include "common/ensure.hpp"
#include "attacks/launch_attacks.hpp"
#include "attacks/scheduling_attack.hpp"
#include "core/auditor.hpp"
#include "core/billing.hpp"
#include "core/experiment.hpp"
#include "core/meters.hpp"
#include "core/tpm.hpp"
#include "core/trusted_metering.hpp"
#include "helpers.hpp"
#include "workloads/stdlibs.hpp"

namespace mtr::core {
namespace {

using workloads::WorkloadKind;

// --- meters cross-check against the kernel's own accounting -----------------------

TEST(Meters, TickMeterMatchesKernelPcbCounters) {
  sim::Simulation s(test::small_machine());
  TickMeter meter;
  s.kernel().add_hook(&meter);
  const auto info = workloads::make_workload(WorkloadKind::kPi, {0.02});
  const Pid pid = s.launch(info.image);
  ASSERT_TRUE(s.run_until_exit(pid));
  const Tgid tg = s.kernel().process(pid).tgid;
  const auto pcb = s.kernel().group_usage(tg).ticks;
  const auto metered = meter.usage(tg);
  EXPECT_EQ(metered.utime.v, pcb.utime.v);
  EXPECT_EQ(metered.stime.v, pcb.stime.v);
}

TEST(Meters, TscMeterGrandTotalEqualsElapsedTime) {
  sim::Simulation s(test::small_machine());
  TscMeter meter;
  s.kernel().add_hook(&meter);
  const auto info = workloads::make_workload(WorkloadKind::kOurs, {0.02});
  const Pid pid = s.launch(info.image);
  ASSERT_TRUE(s.run_until_exit(pid));
  s.run_all(Cycles{100'000'000});
  EXPECT_EQ(meter.grand_total().v, s.kernel().now().v);
}

TEST(Meters, TscMeterMatchesGroundTruthPerGroup) {
  sim::Simulation s(test::small_machine());
  TscMeter meter;
  s.kernel().add_hook(&meter);
  const auto info = workloads::make_workload(WorkloadKind::kWhetstone, {0.02});
  const Pid pid = s.launch(info.image);
  ASSERT_TRUE(s.run_until_exit(pid));
  const Tgid tg = s.kernel().process(pid).tgid;
  const auto truth = s.kernel().group_usage(tg).true_cycles;
  const auto metered = meter.usage(tg);
  EXPECT_EQ(metered.user.v, truth.user.v);
  EXPECT_EQ(metered.system.v, truth.system.v);
}

TEST(Meters, PaisNeverExceedsTscForUserCompute) {
  sim::Simulation s(test::small_machine());
  TscMeter tsc;
  PaisMeter pais;
  s.kernel().add_hook(&tsc);
  s.kernel().add_hook(&pais);
  const auto info = workloads::make_workload(WorkloadKind::kOurs, {0.02});
  const Pid pid = s.launch(info.image);
  ASSERT_TRUE(s.run_until_exit(pid));
  const Tgid tg = s.kernel().process(pid).tgid;
  // User cycles agree exactly; PAIS re-attributes only kernel work.
  EXPECT_EQ(pais.usage(tg).user.v, tsc.usage(tg).user.v);
}

// --- TPM ------------------------------------------------------------------------------

TEST(Tpm, ExtendIsOrderSensitive) {
  TpmMock tpm(1);
  TpmMock tpm2(1);
  const auto m1 = crypto::sha256("a");
  const auto m2 = crypto::sha256("b");
  tpm.extend(0, m1);
  tpm.extend(0, m2);
  tpm2.extend(0, m2);
  tpm2.extend(0, m1);
  EXPECT_NE(tpm.pcr(0), tpm2.pcr(0));
}

TEST(Tpm, QuoteVerifiesAndTamperFails) {
  TpmMock tpm(7);
  tpm.extend(0, crypto::sha256("measurement"));
  const auto quote = tpm.quote(0, 12345, "usage=1.5s");
  EXPECT_TRUE(TpmMock::verify(quote, tpm.verification_key()));

  auto tampered = quote;
  tampered.payload = "usage=0.1s";
  EXPECT_FALSE(TpmMock::verify(tampered, tpm.verification_key()));

  auto replayed = quote;
  replayed.nonce = 999;
  EXPECT_FALSE(TpmMock::verify(replayed, tpm.verification_key()));

  EXPECT_FALSE(TpmMock::verify(quote, TpmMock(8).verification_key()));
}

TEST(Tpm, PcrIndexBoundsChecked) {
  TpmMock tpm(1);
  EXPECT_THROW(tpm.pcr(-1), mtr::InvariantError);
  EXPECT_THROW(tpm.extend(TpmMock::kPcrCount, crypto::Digest32{}), mtr::InvariantError);
}

// --- billing -----------------------------------------------------------------------------

TEST(Billing, TickInvoicePricesSeconds) {
  BillingEngine eng(Tariff{0.40}, CpuHz{}, TimerHz{250});
  CpuUsageTicks u;
  u.utime = Ticks{250 * 3600};  // one CPU-hour of utime
  const Invoice inv = eng.invoice(u);
  EXPECT_DOUBLE_EQ(inv.cpu_seconds, 3600.0);
  EXPECT_NEAR(inv.amount_dollars, 0.40, 1e-9);
  EXPECT_EQ(inv.meter, "tick");
}

TEST(Billing, CycleInvoiceMatchesTickInvoiceOnCleanRun) {
  BillingEngine eng(Tariff{1.0}, CpuHz{}, TimerHz{250});
  CpuUsageCycles c;
  c.user = seconds_to_cycles(10.0, CpuHz{});
  const Invoice inv = eng.invoice(c, "tsc");
  EXPECT_NEAR(inv.cpu_seconds, 10.0, 1e-9);
  EXPECT_EQ(inv.meter, "tsc");
}

TEST(Billing, PayloadSerializationStable) {
  Invoice inv;
  inv.meter = "pais";
  inv.user_seconds = 1.5;
  inv.system_seconds = 0.25;
  inv.amount_dollars = 0.01;
  const std::string payload = BillingEngine::payload_of(inv);
  EXPECT_NE(payload.find("meter=pais"), std::string::npos);
  EXPECT_NE(payload.find("user_s=1.500000"), std::string::npos);
}

// --- trusted metering service ---------------------------------------------------------------

TEST(TrustedMetering, SignedReportVerifiesEndToEnd) {
  auto cfg = test::quick_experiment(WorkloadKind::kPi, 0.02);
  sim::Simulation s(cfg.sim);
  TrustedMeteringService service(Tariff{}, cfg.sim.kernel.cpu, cfg.sim.kernel.hz);
  for (auto& tag : expected_code_tags(WorkloadKind::kPi)) service.allow_code(tag);
  service.attach(s.kernel());

  const auto info = workloads::make_workload(WorkloadKind::kPi, cfg.workload);
  const Pid pid = s.launch(info.image);
  ASSERT_TRUE(s.run_until_exit(pid));
  const Tgid tg = s.kernel().process(pid).tgid;

  const SignedUsageReport report = service.report(tg, BillingMeter::kPais, 777);
  EXPECT_TRUE(TpmMock::verify(report.quote, service.tpm().verification_key()));
  EXPECT_GT(report.invoice.cpu_seconds, 0.0);
  EXPECT_EQ(report.nonce, 777u);
}

TEST(TrustedMetering, TickAndTscInvoicesPriceTheKernelLedger) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.02);
  sim::Simulation s(cfg.sim);
  TrustedMeteringService service(Tariff{}, cfg.sim.kernel.cpu, cfg.sim.kernel.hz);
  service.attach(s.kernel());
  TickMeter tick;  // independent re-implementations of the two ledger columns
  TscMeter tsc;
  s.kernel().add_hook(&tick);
  s.kernel().add_hook(&tsc);

  const auto info = workloads::make_workload(WorkloadKind::kWhetstone, cfg.workload);
  const Pid pid = s.launch(info.image);
  ASSERT_TRUE(s.run_until_exit(pid));
  const Tgid tg = s.kernel().process(pid).tgid;

  const kernel::Usage ledger = s.kernel().group_usage(tg);
  ASSERT_GT(ledger.ticks.total().v, 0u);
  ASSERT_GT(ledger.true_cycles.system.v, 0u);
  const BillingEngine billing(Tariff{}, cfg.sim.kernel.cpu, cfg.sim.kernel.hz);
  EXPECT_EQ(BillingEngine::payload_of(service.invoice(tg, BillingMeter::kTick)),
            BillingEngine::payload_of(billing.invoice(ledger.ticks, "tick")));
  EXPECT_EQ(BillingEngine::payload_of(service.invoice(tg, BillingMeter::kTsc)),
            BillingEngine::payload_of(billing.invoice(ledger.true_cycles, "tsc")));
  EXPECT_EQ(service.tick_usage(tg).utime.v, tick.usage(tg).utime.v);
  EXPECT_EQ(service.tick_usage(tg).stime.v, tick.usage(tg).stime.v);
  EXPECT_EQ(service.tsc_usage(tg).user.v, tsc.usage(tg).user.v);
  EXPECT_EQ(service.tsc_usage(tg).system.v, tsc.usage(tg).system.v);
}

TEST(TrustedMetering, LedgerInvoiceBeforeAttachRejected) {
  TrustedMeteringService service(Tariff{}, CpuHz{}, TimerHz{});
  EXPECT_THROW(service.invoice(Tgid{1}, BillingMeter::kTick), mtr::InvariantError);
  EXPECT_THROW(service.invoice(Tgid{1}, BillingMeter::kTsc), mtr::InvariantError);
  EXPECT_THROW(service.tick_usage(Tgid{1}), mtr::InvariantError);
  EXPECT_THROW(service.tsc_usage(Tgid{1}), mtr::InvariantError);
}

TEST(TrustedMetering, DoubleAttachRejected) {
  sim::Simulation s(test::small_machine());
  TrustedMeteringService service(Tariff{}, CpuHz{}, TimerHz{});
  service.attach(s.kernel());
  sim::Simulation s2(test::small_machine());
  EXPECT_THROW(service.attach(s2.kernel()), mtr::InvariantError);
}

// --- auditor ---------------------------------------------------------------------------------

AuditExpectations expectations_for(const TrustedMeteringService& service,
                                   std::uint64_t nonce) {
  AuditExpectations exp;
  exp.tpm_key = service.tpm().verification_key();
  exp.nonce = nonce;
  return exp;
}

TEST(AuditorTest, AcceptsCleanRun) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.02);
  const auto r = run_experiment(cfg);

  // Reconstruct a service-side report from the result for the audit API.
  TrustedMeteringService service(Tariff{}, cfg.sim.kernel.cpu, cfg.sim.kernel.hz);
  AuditExpectations exp = expectations_for(service, 1);
  exp.reference_witness = r.witness;
  Auditor auditor(exp);

  SignedUsageReport report;
  report.invoice.cpu_seconds = r.billed_seconds;
  report.nonce = 1;
  report.quote = service.tpm().quote(0, 1, "payload");

  const AuditReport audit = auditor.audit(
      report, r.source_verdict, r.witness, r.billed_seconds, r.tsc_seconds,
      r.billed_system_seconds / std::max(r.billed_seconds, 1e-9),
      static_cast<double>(r.major_faults) / std::max(r.billed_seconds, 1e-9));
  EXPECT_TRUE(audit.accepted) << [&] {
    std::string s;
    for (const auto& f : audit.findings)
      if (!f.ok) s += f.check + ": " + f.detail + "; ";
    return s;
  }();
}

TEST(AuditorTest, FlagsSourceViolationAndBadWitness) {
  auto cfg = test::quick_experiment(WorkloadKind::kOurs, 0.02);
  const auto base = run_experiment(cfg);
  attacks::ShellAttack attack(seconds_to_cycles(0.05, CpuHz{}));
  const auto hit = run_experiment(cfg, &attack);

  TrustedMeteringService service(Tariff{}, cfg.sim.kernel.cpu, cfg.sim.kernel.hz);
  AuditExpectations exp = expectations_for(service, 2);
  exp.reference_witness = base.witness;  // customer replayed her own job
  Auditor auditor(exp);

  SignedUsageReport report;
  report.nonce = 2;
  report.quote = service.tpm().quote(0, 2, "payload");

  const AuditReport audit = auditor.audit(
      report, hit.source_verdict, hit.witness, hit.billed_seconds, hit.tsc_seconds,
      0.0, 0.0);
  EXPECT_FALSE(audit.accepted);
  bool src_flagged = false;
  bool wit_flagged = false;
  for (const auto& f : audit.findings) {
    if (f.check == "source-integrity") src_flagged = !f.ok;
    if (f.check == "execution-integrity") wit_flagged = !f.ok;
  }
  EXPECT_TRUE(src_flagged);
  EXPECT_TRUE(wit_flagged);
}

TEST(AuditorTest, FlagsMeterDivergenceFromSchedulingAttack) {
  auto cfg = test::quick_experiment(WorkloadKind::kWhetstone, 0.05);
  attacks::SchedulingAttackParams params;
  params.nice = Nice{-20};
  params.total_forks = 3000;
  attacks::SchedulingAttack attack(params);
  const auto hit = run_experiment(cfg, &attack);

  TrustedMeteringService service(Tariff{}, cfg.sim.kernel.cpu, cfg.sim.kernel.hz);
  Auditor auditor(expectations_for(service, 3));
  SignedUsageReport report;
  report.nonce = 3;
  report.quote = service.tpm().quote(0, 3, "payload");

  const AuditReport audit = auditor.audit(report, hit.source_verdict, hit.witness,
                                          hit.billed_seconds, hit.tsc_seconds, 0.0,
                                          0.0);
  bool meters_flagged = false;
  for (const auto& f : audit.findings)
    if (f.check == "meter-consistency") meters_flagged = !f.ok;
  EXPECT_TRUE(meters_flagged);
}

TEST(AuditorTest, FlagsStaleNonce) {
  TrustedMeteringService service(Tariff{}, CpuHz{}, TimerHz{});
  Auditor auditor(expectations_for(service, 5));
  SignedUsageReport report;
  report.nonce = 4;  // replay of an older report
  report.quote = service.tpm().quote(0, 4, "payload");
  const AuditReport audit = auditor.audit(report, {}, crypto::Digest32{}, 1.0, 1.0,
                                          0.0, 0.0);
  EXPECT_FALSE(audit.accepted);
}

// --- experiment harness ------------------------------------------------------------------------

TEST(Experiment, BaselineIsHonestWithinTickQuantization) {
  for (const WorkloadKind kind :
       {WorkloadKind::kOurs, WorkloadKind::kPi, WorkloadKind::kWhetstone}) {
    const auto r = run_experiment(test::quick_experiment(kind, 0.02));
    EXPECT_TRUE(r.victim_exited);
    EXPECT_NEAR(r.overcharge, 1.0, 0.08) << workloads::long_name(kind);
    EXPECT_TRUE(r.source_verdict.ok);
  }
}

TEST(Experiment, DeterministicResults) {
  const auto cfg = test::quick_experiment(WorkloadKind::kBrute, 0.01);
  const auto a = run_experiment(cfg);
  const auto b = run_experiment(cfg);
  EXPECT_EQ(a.billed_ticks.total().v, b.billed_ticks.total().v);
  EXPECT_EQ(a.true_cycles.total().v, b.true_cycles.total().v);
  EXPECT_EQ(a.witness, b.witness);
}

TEST(Experiment, ExpectedTagsCoverCleanClosure) {
  const auto tags = expected_code_tags(WorkloadKind::kWhetstone);
  EXPECT_NE(std::find(tags.begin(), tags.end(), workloads::kLibmTag), tags.end());
  EXPECT_NE(std::find(tags.begin(), tags.end(), "whetstone#1.2"), tags.end());
}

}  // namespace
}  // namespace mtr::core
