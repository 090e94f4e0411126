// Direct unit tests of the metering schemes against hand-crafted event
// streams — attribution semantics pinned down independently of the
// simulator (the sim-level suites cover the integrated behaviour).
#include <gtest/gtest.h>

#include "common/ensure.hpp"
#include "core/integrity.hpp"
#include "core/meters.hpp"

namespace mtr::core {
namespace {

using kernel::CodeMapping;
using kernel::WorkKind;

constexpr Pid kJob{5};
constexpr Tgid kJobTg{5};
constexpr Pid kOther{9};
constexpr Tgid kOtherTg{9};

TEST(TickMeterUnit, SplitsByModeAndSkipsIdle) {
  TickMeter m;
  m.on_tick(Cycles{100}, kJob, kJobTg, CpuMode::kUser);
  m.on_tick(Cycles{200}, kJob, kJobTg, CpuMode::kUser);
  m.on_tick(Cycles{300}, kJob, kJobTg, CpuMode::kKernel);
  m.on_tick(Cycles{400}, kIdlePid, Tgid{0}, CpuMode::kKernel);
  EXPECT_EQ(m.usage(kJobTg).utime.v, 2u);
  EXPECT_EQ(m.usage(kJobTg).stime.v, 1u);
  EXPECT_EQ(m.idle_ticks().v, 1u);
  EXPECT_EQ(m.usage(kOtherTg).total().v, 0u);
}

TEST(TscMeterUnit, ChargesCurrentRegardlessOfBeneficiary) {
  TscMeter m;
  m.on_cycles(Cycles{0}, kJob, kJobTg, WorkKind::kUserCompute, Cycles{100}, kJob);
  // A device interrupt that serves nobody still lands on the current
  // process under the commodity attribution policy.
  m.on_cycles(Cycles{0}, kJob, kJobTg, WorkKind::kDeviceIrq, Cycles{40}, Pid{});
  // Debug exception caused by a tracer: TSC still bills the tracee.
  m.on_cycles(Cycles{0}, kJob, kJobTg, WorkKind::kDebugException, Cycles{60}, kOther);
  EXPECT_EQ(m.usage(kJobTg).user.v, 100u);
  EXPECT_EQ(m.usage(kJobTg).system.v, 100u);
  EXPECT_EQ(m.usage(kOtherTg).total().v, 0u);
}

TEST(PaisMeterUnit, ReattributesByResponsiblePrincipal) {
  PaisMeter m;
  m.on_process_created(Cycles{0}, kJob, kJobTg, Pid{}, "job");
  m.on_process_created(Cycles{0}, kOther, kOtherTg, Pid{}, "tracer");

  // Own compute: the job.
  m.on_cycles(Cycles{0}, kJob, kJobTg, WorkKind::kUserCompute, Cycles{100}, kJob);
  // Ownerless junk interrupt: system account.
  m.on_cycles(Cycles{0}, kJob, kJobTg, WorkKind::kDeviceIrq, Cycles{40}, Pid{});
  // Timer housekeeping: system account.
  m.on_cycles(Cycles{0}, kJob, kJobTg, WorkKind::kTimerIrq, Cycles{10}, kJob);
  // Disk completion owned by the job: the job's stime, even if another
  // process was interrupted.
  m.on_cycles(Cycles{0}, kOther, kOtherTg, WorkKind::kDeviceIrq, Cycles{25}, kJob);
  // Debug exception in the job caused by the tracer: the tracer's bill.
  m.on_cycles(Cycles{0}, kJob, kJobTg, WorkKind::kDebugException, Cycles{60}, kOther);

  EXPECT_EQ(m.usage(kJobTg).user.v, 100u);
  EXPECT_EQ(m.usage(kJobTg).system.v, 25u);
  EXPECT_EQ(m.usage(kOtherTg).system.v, 60u);
  EXPECT_EQ(m.system_cycles().v, 50u);
}

TEST(PaisMeterUnit, UnknownBeneficiaryFallsBackToCurrent) {
  PaisMeter m;
  m.on_process_created(Cycles{0}, kJob, kJobTg, Pid{}, "job");
  // Beneficiary pid never registered: fall back to the current group.
  m.on_cycles(Cycles{0}, kJob, kJobTg, WorkKind::kSyscallBody, Cycles{30}, Pid{77});
  EXPECT_EQ(m.usage(kJobTg).system.v, 30u);
}

TEST(SourceIntegrityUnit, PcrChainsAndWhitelistChecks) {
  SourceIntegrityMonitor m;
  m.allow("libc#good");
  m.on_code_mapped(Cycles{0}, kJobTg, CodeMapping{"/lib/libc.so", "libc#good", 4});
  EXPECT_TRUE(m.verify(kJobTg).ok);
  const auto pcr_before = m.pcr(kJobTg);

  m.on_code_mapped(Cycles{0}, kJobTg, CodeMapping{"/tmp/evil.so", "evil#1", 1});
  const auto verdict = m.verify(kJobTg);
  EXPECT_FALSE(verdict.ok);
  ASSERT_EQ(verdict.violations.size(), 1u);
  EXPECT_NE(verdict.violations[0].find("evil#1"), std::string::npos);
  EXPECT_NE(m.pcr(kJobTg), pcr_before);  // extend changed the PCR
  EXPECT_EQ(m.log(kJobTg).size(), 2u);
}

TEST(SourceIntegrityUnit, EmptySpaceVerifiesClean) {
  SourceIntegrityMonitor m;
  EXPECT_TRUE(m.verify(Tgid{123}).ok);
  EXPECT_EQ(m.pcr(Tgid{123}), crypto::Digest32{});
  EXPECT_TRUE(m.log(Tgid{123}).empty());
}

TEST(SourceIntegrityUnit, MeasurementSeparatesObjectFromTag) {
  // The measurement hashes object, one NUL byte and tag, so moving bytes
  // across the boundary must change the PCR.
  SourceIntegrityMonitor a;
  a.on_code_mapped(Cycles{0}, kJobTg, CodeMapping{"ab", "c", 1});
  SourceIntegrityMonitor b;
  b.on_code_mapped(Cycles{0}, kJobTg, CodeMapping{"a", "bc", 1});
  EXPECT_NE(a.pcr(kJobTg), b.pcr(kJobTg));
}

TEST(ExecutionIntegrityUnit, WitnessIsOrderSensitivePerThread) {
  ExecutionIntegrityMonitor a;
  a.on_step_begin(Cycles{0}, kJob, kJobTg, "compute", "x");
  a.on_step_begin(Cycles{0}, kJob, kJobTg, "compute", "y");
  ExecutionIntegrityMonitor b;
  b.on_step_begin(Cycles{0}, kJob, kJobTg, "compute", "y");
  b.on_step_begin(Cycles{0}, kJob, kJobTg, "compute", "x");
  EXPECT_NE(a.witness(kJobTg), b.witness(kJobTg));
  EXPECT_EQ(a.step_count(kJobTg), 2u);
}

TEST(ExecutionIntegrityUnit, ThreadInterleavingInvariant) {
  // Two threads of one group, steps interleaved differently: the combined
  // witness must not depend on the global interleaving.
  const Pid t1{11};
  const Pid t2{12};
  ExecutionIntegrityMonitor a;
  a.on_step_begin(Cycles{0}, t1, kJobTg, "compute", "a1");
  a.on_step_begin(Cycles{0}, t2, kJobTg, "compute", "b1");
  a.on_step_begin(Cycles{0}, t1, kJobTg, "compute", "a2");

  ExecutionIntegrityMonitor b;
  b.on_step_begin(Cycles{0}, t2, kJobTg, "compute", "b1");
  b.on_step_begin(Cycles{0}, t1, kJobTg, "compute", "a1");
  b.on_step_begin(Cycles{0}, t1, kJobTg, "compute", "a2");

  EXPECT_EQ(a.witness(kJobTg), b.witness(kJobTg));
}

TEST(ExecutionIntegrityUnit, TagAndKindBothBindTheChain) {
  ExecutionIntegrityMonitor a;
  a.on_step_begin(Cycles{0}, kJob, kJobTg, "compute", "x");
  ExecutionIntegrityMonitor b;
  b.on_step_begin(Cycles{0}, kJob, kJobTg, "syscall:fork", "x");
  ExecutionIntegrityMonitor c;
  c.on_step_begin(Cycles{0}, kJob, kJobTg, "compute", "z");
  EXPECT_NE(a.witness(kJobTg), b.witness(kJobTg));
  EXPECT_NE(a.witness(kJobTg), c.witness(kJobTg));
}

TEST(ExecutionIntegrityUnit, WatchKeepsTheWatchedChainAndDropsTheRest) {
  // Steps before the first watch() are chained for every group; the watched
  // group keeps them, so its witness matches the all-groups monitor's.
  ExecutionIntegrityMonitor all;
  ExecutionIntegrityMonitor watching;
  for (ExecutionIntegrityMonitor* m : {&all, &watching}) {
    m->on_step_begin(Cycles{0}, kJob, kJobTg, "syscall:execve", "");
    m->on_step_begin(Cycles{0}, kOther, kOtherTg, "compute", "o1");
  }
  watching.watch(kJobTg);
  EXPECT_EQ(watching.chains(), 1u);
  for (ExecutionIntegrityMonitor* m : {&all, &watching}) {
    m->on_step_begin(Cycles{0}, kJob, kJobTg, "compute", "j1");
    m->on_step_begin(Cycles{0}, kOther, kOtherTg, "compute", "o2");
  }
  EXPECT_EQ(watching.witness(kJobTg), all.witness(kJobTg));
  EXPECT_EQ(watching.step_count(kJobTg), 2u);
  EXPECT_EQ(watching.chains(), 1u);
  EXPECT_EQ(all.chains(), 2u);
}

TEST(ExecutionIntegrityUnit, RefusesAWitnessNobodyRecorded) {
  ExecutionIntegrityMonitor m;
  m.watch(kJobTg);
  m.on_step_begin(Cycles{0}, kOther, kOtherTg, "compute", "o1");
  EXPECT_THROW(m.witness(kOtherTg), InvariantError);
  EXPECT_THROW(m.step_count(kOtherTg), InvariantError);
  // A group that never stepped but is watched reads as the empty chain.
  EXPECT_EQ(m.step_count(kJobTg), 0u);
  EXPECT_EQ(m.witness(kJobTg), ExecutionIntegrityMonitor{}.witness(kJobTg));
}

TEST(ExecutionIntegrityUnit, RefusesToWatchAGroupWhoseStepsWereDropped) {
  ExecutionIntegrityMonitor m;
  m.watch(Tgid{1});
  m.on_step_begin(Cycles{0}, kOther, kOtherTg, "compute", "o1");
  EXPECT_THROW(m.watch(kJobTg), InvariantError);  // created before tgid 9
  EXPECT_THROW(m.watch(kOtherTg), InvariantError);
  m.watch(Tgid{10});  // newer than every dropped step: its chain is whole
  m.watch(Tgid{1});   // already watched: a no-op
  m.on_step_begin(Cycles{0}, Pid{10}, Tgid{10}, "compute", "n1");
  EXPECT_EQ(m.step_count(Tgid{10}), 1u);
}

}  // namespace
}  // namespace mtr::core
