// Kernel engine tests: schedulers, process lifecycle, syscalls, signals,
// ptrace, jiffy accounting identities, cycle-conservation invariants, and
// batched-vs-unbatched accounting-flush equivalence.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "bench/attack_roster.hpp"
#include "core/meters.hpp"
#include "exec/program_base.hpp"
#include "kernel/cfs_scheduler.hpp"
#include "kernel/kernel.hpp"
#include "kernel/o1_scheduler.hpp"
#include "sim/simulation.hpp"
#include "workloads/workloads.hpp"

namespace mtr::kernel {
namespace {

using exec::compute;
using exec::exit_step;
using exec::make_generator;
using exec::make_step_list;
using exec::syscall;

KernelConfig tiny_config() {
  KernelConfig cfg;
  cfg.seed = 7;
  return cfg;
}

std::unique_ptr<Kernel> make_kernel(KernelConfig cfg = tiny_config()) {
  return std::make_unique<Kernel>(cfg, std::make_unique<O1PriorityScheduler>(cfg.hz));
}

Cycles ms(double m) { return seconds_to_cycles(m / 1000.0, CpuHz{}); }

// --- scheduler policy units ----------------------------------------------------

TEST(O1Scheduler, TimesliceGrowsWithPriority) {
  O1PriorityScheduler s(TimerHz{250});
  // Linux 2.6: 100 ms at nice 0, 5 ms at nice 19, 800 ms at nice -20.
  EXPECT_EQ(s.timeslice_ticks(Nice{0}), 25u);
  EXPECT_EQ(s.timeslice_ticks(Nice{19}), 1u);  // 5 ms → 1.25 ticks → ≥1
  EXPECT_EQ(s.timeslice_ticks(Nice{-20}), 200u);
  EXPECT_GT(s.timeslice_ticks(Nice{-10}), s.timeslice_ticks(Nice{0}));
}

TEST(CfsScheduler, WeightTableMatchesLinux) {
  EXPECT_EQ(CfsScheduler::weight_of(Nice{0}), 1024u);
  EXPECT_EQ(CfsScheduler::weight_of(Nice{-20}), 88761u);
  EXPECT_EQ(CfsScheduler::weight_of(Nice{19}), 15u);
  EXPECT_GT(CfsScheduler::weight_of(Nice{-1}), CfsScheduler::weight_of(Nice{0}));
}

// --- lifecycle ---------------------------------------------------------------

TEST(KernelLifecycle, RunSingleProcessToExit) {
  auto k = make_kernel();
  const Pid pid = k->spawn({"job", make_step_list("job", {compute(ms(25))}), Nice{0},
                            true});
  k->run();
  const Process& p = k->process(pid);
  EXPECT_FALSE(p.alive());
  EXPECT_TRUE(k->all_work_done());
  // 25 ms of user compute at 250 HZ → ~6 utime ticks.
  EXPECT_NEAR(static_cast<double>(p.tick_usage.utime.v), 6.0, 1.0);
  EXPECT_GE(p.true_usage.user.v, ms(25).v);
}

TEST(KernelLifecycle, MeteringStartsAtCreation) {
  // The fork child burns CPU before execve; all of it lands on the child.
  auto k = make_kernel();
  exec::ProgramFactory child = make_step_list(
      "child", {compute(ms(12)), syscall(SysExecve{make_step_list("target",
                                                                  {compute(ms(4))}),
                                                   "/bin/target"})});
  const Pid parent = k->spawn(
      {"parent", make_step_list("parent", {syscall(SysFork{child}), syscall(SysWait{})}),
       Nice{0}, true});
  k->run();
  // Find the child record.
  Pid child_pid{};
  for (const Pid pid : k->all_pids()) {
    if (k->process(pid).name == "/bin/target") child_pid = pid;
  }
  ASSERT_TRUE(child_pid.valid());
  const Process& c = k->process(child_pid);
  EXPECT_GE(c.true_usage.user.v, ms(16).v);  // 12 ms pre-exec + 4 ms post
  EXPECT_FALSE(k->process(parent).alive());
}

TEST(KernelLifecycle, ThreadsShareGroupAndSpace) {
  auto k = make_kernel();
  exec::ProgramFactory worker = make_step_list("w", {compute(ms(8))});
  const Pid main_pid = k->spawn(
      {"main",
       make_step_list("main", {syscall(SysClone{worker}), syscall(SysClone{worker}),
                               syscall(SysWait{}), syscall(SysWait{})}),
       Nice{0}, true});
  k->run();
  const Tgid tg = k->process(main_pid).tgid;
  int members = 0;
  for (const Pid pid : k->all_pids())
    if (k->process(pid).tgid == tg) ++members;
  EXPECT_EQ(members, 3);
  const GroupUsage u = k->group_usage(tg);
  EXPECT_GE(u.true_cycles.user.v, ms(16).v);  // both workers' compute summed
}

TEST(KernelLifecycle, OrphanZombiesAutoReap) {
  auto k = make_kernel();
  // Parent exits immediately without waiting; child becomes an orphan.
  exec::ProgramFactory child = make_step_list("c", {compute(ms(10))});
  (void)k->spawn({"p", make_step_list("p", {syscall(SysFork{child})}), Nice{0}, true});
  k->run();
  EXPECT_TRUE(k->all_work_done());
  for (const Pid pid : k->all_pids())
    EXPECT_EQ(k->process(pid).state, ProcState::kReaped) << pid.v;
}

// --- jiffy accounting identities ------------------------------------------------

TEST(Accounting, TicksFiredEqualsChargedTicks) {
  auto k = make_kernel();
  (void)k->spawn({"a", make_step_list("a", {compute(ms(100))}), Nice{0}, true});
  (void)k->spawn({"b", make_step_list("b", {compute(ms(60))}), Nice{0}, true});
  k->run();
  Ticks charged = k->idle_ticks();
  for (const Pid pid : k->all_pids()) charged += k->process(pid).tick_usage.total();
  EXPECT_EQ(charged.v, k->timer().ticks_fired());
}

TEST(Accounting, TrueCyclesConservation) {
  auto k = make_kernel();
  (void)k->spawn({"a", make_step_list("a", {compute(ms(40))}), Nice{0}, true});
  (void)k->spawn({"b", make_step_list("b", {compute(ms(30))}), Nice{5}, true});
  const Cycles end = k->run();
  Cycles total = k->idle_cycles().total();
  for (const Pid pid : k->all_pids()) total += k->process(pid).true_usage.total();
  EXPECT_EQ(total.v, end.v);
}

TEST(Accounting, SyscallHeavyJobAccruesStime) {
  auto k = make_kernel();
  std::vector<Step> steps;
  for (int i = 0; i < 200; ++i) {
    steps.push_back(compute(Cycles{50'000}));
    steps.push_back(syscall(SysGeneric{"io", Cycles{400'000}}));
  }
  const Pid pid = k->spawn({"sys-heavy", make_step_list("sys-heavy", steps), Nice{0},
                            true});
  k->run();
  const Process& p = k->process(pid);
  EXPECT_GT(p.true_usage.system.v, p.true_usage.user.v);
  EXPECT_GT(p.tick_usage.stime.v, 0u);
}

// --- scheduling ---------------------------------------------------------------

TEST(Scheduling, EqualNiceSharesRoughlyEqually) {
  auto k = make_kernel();
  const Pid a = k->spawn({"a", make_step_list("a", {compute(ms(400))}), Nice{0}, true});
  const Pid b = k->spawn({"b", make_step_list("b", {compute(ms(400))}), Nice{0}, true});
  // Run only half the total demand: both should have progressed similarly.
  k->run(seconds_to_cycles(0.4, CpuHz{}));
  const auto ua = k->process(a).true_usage.user.v;
  const auto ub = k->process(b).true_usage.user.v;
  EXPECT_GT(ua, 0u);
  EXPECT_GT(ub, 0u);
  EXPECT_NEAR(static_cast<double>(ua) / static_cast<double>(ua + ub), 0.5, 0.30);
}

TEST(Scheduling, HigherPriorityWinsTheCpu) {
  auto k = make_kernel();
  const Pid hi = k->spawn({"hi", make_step_list("hi", {compute(ms(300))}), Nice{-10},
                           true});
  const Pid lo = k->spawn({"lo", make_step_list("lo", {compute(ms(300))}), Nice{10},
                           true});
  k->run(seconds_to_cycles(0.25, CpuHz{}));
  EXPECT_GT(k->process(hi).true_usage.user.v, 5 * k->process(lo).true_usage.user.v);
}

TEST(Scheduling, WakeupPreemptionByHigherPriority) {
  auto k = make_kernel();
  // Low-priority hog; high-priority sleeper that wakes mid-run.
  const Pid hog = k->spawn({"hog", make_step_list("hog", {compute(ms(200))}), Nice{0},
                            true});
  const Pid napper = k->spawn(
      {"napper",
       make_step_list("napper", {syscall(SysNanosleep{ms(20)}), compute(ms(10))}),
       Nice{-15}, true});
  k->run();
  const Process& n = k->process(napper);
  const Process& h = k->process(hog);
  EXPECT_FALSE(n.alive());
  EXPECT_FALSE(h.alive());
  // The hog was preempted at least once by the waking napper.
  EXPECT_GE(h.involuntary_switches, 1u);
}

TEST(Scheduling, CfsFairWeightedSharing) {
  KernelConfig cfg = tiny_config();
  auto k = std::make_unique<Kernel>(cfg, std::make_unique<CfsScheduler>(cfg.cpu));
  const Pid a = k->spawn({"a", make_step_list("a", {compute(ms(900))}), Nice{0}, true});
  const Pid b = k->spawn({"b", make_step_list("b", {compute(ms(900))}), Nice{5}, true});
  k->run(seconds_to_cycles(0.5, CpuHz{}));
  const double ua = static_cast<double>(k->process(a).true_usage.user.v);
  const double ub = static_cast<double>(k->process(b).true_usage.user.v);
  // weight(0)/weight(5) = 1024/335 ≈ 3.06.
  EXPECT_GT(ua / ub, 1.8);
  EXPECT_LT(ua / ub, 5.0);
}

// --- syscalls ------------------------------------------------------------------

TEST(Syscalls, NiceChangeRequiresPrivilege) {
  auto k = make_kernel();
  const Pid unpriv = k->spawn(
      {"u", make_step_list("u", {syscall(SysSetPriority{Pid{}, Nice{-5}})}), Nice{0},
       /*privileged=*/false});
  const Pid priv = k->spawn(
      {"p", make_step_list("p", {syscall(SysSetPriority{Pid{}, Nice{-5}})}), Nice{0},
       /*privileged=*/true});
  k->run();
  EXPECT_EQ(k->process(unpriv).nice, Nice{0});   // EPERM
  EXPECT_EQ(k->process(priv).nice, Nice{-5});
}

TEST(Syscalls, NanosleepWakesOnJiffyBoundary) {
  auto k = make_kernel();
  const Pid pid = k->spawn(
      {"s", make_step_list("s", {syscall(SysNanosleep{Cycles{1'000}}), compute(ms(1))}),
       Nice{0}, true});
  k->run();
  EXPECT_FALSE(k->process(pid).alive());
  // A 1000-cycle sleep still consumed a whole jiffy of wall time.
  EXPECT_GE(k->now().v, tick_length(CpuHz{}, TimerHz{}).v);
}

TEST(Syscalls, KillTerminatesTarget) {
  auto k = make_kernel();
  const Pid victim = k->spawn({"v", make_step_list("v", {compute(ms(500))}), Nice{5},
                               true});
  (void)k->spawn(
      {"killer",
       make_step_list("killer", {compute(ms(2)), syscall(SysKill{victim, Signal::kKill})}),
       Nice{0}, true});
  k->run();
  const Process& v = k->process(victim);
  EXPECT_TRUE(v.exited);
  EXPECT_EQ(v.exit_code, 128 + 9);
  // It died long before its 500 ms of work.
  EXPECT_LT(v.true_usage.user.v, ms(400).v);
}

TEST(Syscalls, WaitWithNoChildrenReturnsError) {
  auto k = make_kernel();
  struct Probe {
    std::int64_t wait_result = 42;
  };
  auto probe = std::make_shared<Probe>();
  int stage = 0;
  const Pid pid = k->spawn(
      {"w", exec::make_generator("w",
                                 [probe, stage](ProcessContext& ctx) mutable
                                 -> std::optional<Step> {
                                   if (stage == 0) {
                                     ++stage;
                                     return syscall(SysWait{});
                                   }
                                   probe->wait_result = ctx.last_result();
                                   return std::nullopt;
                                 }),
       Nice{0}, true});
  k->run();
  EXPECT_FALSE(k->process(pid).alive());
  EXPECT_EQ(probe->wait_result, -1);
}

TEST(Syscalls, DiskIoBlocksForServiceTime) {
  auto k = make_kernel();
  const Pid pid = k->spawn({"io", make_step_list("io", {syscall(SysDiskIo{})}), Nice{0},
                            true});
  k->run();
  EXPECT_GE(k->now().v, tiny_config().costs.disk_latency.v);
  EXPECT_FALSE(k->process(pid).alive());
}

// --- ptrace ---------------------------------------------------------------------

TEST(Ptrace, AttachStopsTargetAndContResumes) {
  auto k = make_kernel();
  const Pid victim = k->spawn({"v", make_step_list("v", {compute(ms(30))}), Nice{5},
                               true});
  const Pid tracer = k->spawn(
      {"t",
       make_step_list("t", {syscall(SysPtrace{PtraceOp::kAttach, victim}),
                            syscall(SysWait{}),
                            syscall(SysPtrace{PtraceOp::kCont, victim}),
                            syscall(SysPtrace{PtraceOp::kDetach, victim})}),
       Nice{0}, true});
  k->run();
  EXPECT_FALSE(k->process(victim).alive());  // finished after resume
  EXPECT_FALSE(k->process(tracer).alive());
  EXPECT_GE(k->process(victim).signals_received, 1u);  // the attach SIGSTOP
}

TEST(Ptrace, LsmPolicyDeniesUnprivilegedAttach) {
  KernelConfig cfg = tiny_config();
  cfg.ptrace_policy = PtracePolicy::kPrivilegedOnly;
  auto k = std::make_unique<Kernel>(cfg, std::make_unique<O1PriorityScheduler>(cfg.hz));
  const Pid victim = k->spawn({"v", make_step_list("v", {compute(ms(10))}), Nice{5},
                               true});
  auto result = std::make_shared<std::int64_t>(42);
  int stage = 0;
  (void)k->spawn(
      {"t", exec::make_generator(
                "t",
                [result, stage, victim](ProcessContext& ctx) mutable
                -> std::optional<Step> {
                  if (stage == 0) {
                    ++stage;
                    return syscall(SysPtrace{PtraceOp::kAttach, victim});
                  }
                  *result = ctx.last_result();
                  return std::nullopt;
                }),
       Nice{0}, /*privileged=*/false});
  k->run();
  EXPECT_EQ(*result, -1);  // EPERM
  EXPECT_FALSE(k->process(victim).traced());
}

TEST(Ptrace, DebugRegisterBreakpointGeneratesTrapCycle) {
  auto k = make_kernel();
  // Victim touches a hot address every 0.5 ms within 20 ms of compute.
  ComputeStep body{ms(20), {}, "hot-loop"};
  body.mem.hot.push_back(HotAccess{VAddr{0xbeef000}, ms(0.5)});
  const Pid victim =
      k->spawn({"v", make_step_list("v", {Step{body}}), Nice{5}, true});

  // Tracer: attach, arm DR0, then cont/wait until the victim dies.
  struct TracerState {
    int stage = 0;
  };
  auto st = std::make_shared<TracerState>();
  (void)k->spawn(
      {"t", exec::make_generator(
                "t",
                [st, victim](ProcessContext& ctx) -> std::optional<Step> {
                  switch (st->stage) {
                    case 0:
                      st->stage = 1;
                      return syscall(SysPtrace{PtraceOp::kAttach, victim});
                    case 1:
                      st->stage = 2;
                      return syscall(SysWait{});
                    case 2:
                      st->stage = 3;
                      return syscall(
                          SysPtrace{PtraceOp::kPokeUser, victim, 0, VAddr{0xbeef000}});
                    case 3:
                      st->stage = 4;
                      return syscall(SysPtrace{PtraceOp::kCont, victim});
                    case 4:
                      if (ctx.last_result() < 0) return std::nullopt;
                      st->stage = 3;
                      return syscall(SysWait{});
                  }
                  return std::nullopt;
                }),
       Nice{0}, true});
  k->run();
  const Process& v = k->process(victim);
  EXPECT_FALSE(v.alive());
  // ~40 hot touches → roughly that many debug exceptions.
  EXPECT_GE(v.debug_exceptions, 20u);
  EXPECT_GT(v.true_usage.system.v, 0u);
}

// --- admin APIs ------------------------------------------------------------------

TEST(Admin, ForceKillBreaksSleep) {
  auto k = make_kernel();
  const Pid pid = k->spawn(
      {"sleeper", make_step_list("sleeper", {syscall(SysNanosleep{seconds_to_cycles(
                                                 100.0, CpuHz{})})}),
       Nice{0}, true});
  k->run(seconds_to_cycles(0.01, CpuHz{}));
  k->force_kill(pid);
  k->run();
  EXPECT_TRUE(k->process(pid).exited);
  EXPECT_LT(cycles_to_seconds(k->now(), CpuHz{}), 1.0);
}

TEST(Admin, SetNiceRepositionsQueuedProcess) {
  auto k = make_kernel();
  const Pid a = k->spawn({"a", make_step_list("a", {compute(ms(100))}), Nice{0}, true});
  const Pid b = k->spawn({"b", make_step_list("b", {compute(ms(100))}), Nice{0}, true});
  k->set_nice(b, Nice{-10});
  k->run(seconds_to_cycles(0.06, CpuHz{}));
  EXPECT_GT(k->process(b).true_usage.user.v, k->process(a).true_usage.user.v);
}

// --- accounting-flush equivalence ---------------------------------------------
//
// Batched hook dispatch (the default) coalesces adjacent same-key cycle
// charges and flushes them at kernel-interaction boundaries; the unbatched
// mode (KernelConfig::unbatched_accounting) flushes after every slice.
// Every per-process counter, per-group usage aggregate, and meter
// observation must be bit-identical between the two, for every attack
// program in the roster.

struct AccountingSnapshot {
  // pid -> (name, tick utime/stime, true user/system, faults, switches,
  //         signals, debug exceptions)
  std::map<std::int32_t, std::tuple<std::string, std::uint64_t, std::uint64_t,
                                    std::uint64_t, std::uint64_t, std::uint64_t,
                                    std::uint64_t, std::uint64_t, std::uint64_t,
                                    std::uint64_t, std::uint64_t>>
      procs;
  std::map<std::int32_t, std::int32_t> proc_tgid;  // pid -> tgid
  // tgid -> (tick utime/stime, true user/system, minor/major faults,
  //          voluntary/involuntary switches, signals, debug exceptions)
  std::map<std::int32_t, std::array<std::uint64_t, 10>> groups;
  // tgid -> meter views (tick / tsc / pais), plus machine-wide remainders.
  std::map<std::int32_t, std::tuple<std::uint64_t, std::uint64_t, std::uint64_t,
                                    std::uint64_t, std::uint64_t, std::uint64_t>>
      meters;
  std::uint64_t tsc_idle = 0;
  std::uint64_t pais_system = 0;
  std::uint64_t final_now = 0;
  /// on_cycles invocations observed — NOT part of the equivalence check
  /// (batching exists precisely to shrink it).
  std::uint64_t on_cycles_events = 0;
};

struct CyclesEventCounter final : AccountingHook {
  std::uint64_t events = 0;
  void on_cycles(Cycles, Pid, Tgid, WorkKind, Cycles, Pid) override { ++events; }
};

AccountingSnapshot run_attack_accounting(const core::AttackFactory& make,
                                         bool unbatched, bool event_driven = true,
                                         sim::SimConfig sc = {}) {
  sc.kernel.seed = 1234;
  sc.kernel.unbatched_accounting = unbatched;
  sc.kernel.event_driven = event_driven;
  sim::Simulation s(sc);
  core::TickMeter tick;
  core::TscMeter tsc;
  core::PaisMeter pais;
  CyclesEventCounter counter;
  s.kernel().add_hook(&tick);
  s.kernel().add_hook(&tsc);
  s.kernel().add_hook(&pais);
  s.kernel().add_hook(&counter);

  const auto attack = make ? make() : nullptr;
  sim::LaunchOptions opts;
  if (attack) attack->prepare(s, opts);
  const auto info =
      workloads::make_workload(workloads::WorkloadKind::kWhetstone, {0.02});
  const Pid victim = s.launch(info.image, std::move(opts));
  const Tgid victim_tg = s.kernel().process(victim).tgid;
  attacks::AttackContext ctx{s, victim, victim_tg, info.hot_addr};
  if (attack) attack->engage(ctx);
  s.run_until_exit(victim, seconds_to_cycles(30.0, sc.kernel.cpu));
  s.kernel().memory().check_invariants();
  if (attack) attack->disengage(ctx);
  s.run_all(seconds_to_cycles(1.0, sc.kernel.cpu));
  s.kernel().memory().check_invariants();

  AccountingSnapshot snap;
  snap.final_now = s.kernel().now().v;
  for (const Pid pid : s.kernel().all_pids()) {
    const Process& p = s.kernel().process(pid);
    snap.procs[pid.v] = {p.name,
                         p.tick_usage.utime.v,
                         p.tick_usage.stime.v,
                         p.true_usage.user.v,
                         p.true_usage.system.v,
                         p.minor_faults,
                         p.major_faults,
                         p.voluntary_switches,
                         p.involuntary_switches,
                         p.signals_received,
                         p.debug_exceptions};
    snap.proc_tgid[pid.v] = p.tgid.v;
    if (snap.groups.contains(p.tgid.v)) continue;
    const GroupUsage g = s.kernel().group_usage(p.tgid);
    snap.groups[p.tgid.v] = {g.ticks.utime.v,      g.ticks.stime.v,
                             g.true_cycles.user.v, g.true_cycles.system.v,
                             g.minor_faults,       g.major_faults,
                             g.voluntary_switches, g.involuntary_switches,
                             g.signals_received,   g.debug_exceptions};
    const CpuUsageTicks mt = tick.usage(p.tgid);
    const CpuUsageCycles mc = tsc.usage(p.tgid);
    const CpuUsageCycles mp = pais.usage(p.tgid);
    snap.meters[p.tgid.v] = {mt.utime.v, mt.stime.v, mc.user.v,
                             mc.system.v, mp.user.v,  mp.system.v};
  }
  snap.tsc_idle = tsc.idle_cycles().v;
  snap.pais_system = pais.system_cycles().v;
  snap.on_cycles_events = counter.events;
  return snap;
}

void expect_snapshots_equal(const AccountingSnapshot& a,
                            const AccountingSnapshot& b) {
  EXPECT_EQ(a.final_now, b.final_now);
  EXPECT_EQ(a.procs, b.procs);
  EXPECT_EQ(a.proc_tgid, b.proc_tgid);
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.meters, b.meters);
  EXPECT_EQ(a.tsc_idle, b.tsc_idle);
  EXPECT_EQ(a.pais_system, b.pais_system);
}

/// Baseline (no attack) plus every roster attack.
std::vector<std::pair<std::string, core::AttackFactory>> roster_programs() {
  std::vector<std::pair<std::string, core::AttackFactory>> programs;
  programs.emplace_back("baseline", nullptr);
  for (auto& e : bench::attack_roster(/*scale=*/0.02))
    programs.emplace_back(e.label, std::move(e.make));
  return programs;
}

TEST(AccountingFlush, BatchedModeMatchesFlushEverySliceAcrossAllAttacks) {
  for (auto& [label, make] : roster_programs()) {
    SCOPED_TRACE(label);
    const AccountingSnapshot batched = run_attack_accounting(make, false);
    const AccountingSnapshot unbatched = run_attack_accounting(make, true);
    expect_snapshots_equal(batched, unbatched);
    // The batch must coalesce *something* on a real run, or the default
    // mode silently degenerated into the unbatched one.
    EXPECT_LT(batched.on_cycles_events, unbatched.on_cycles_events);
  }
}

// --- event-engine equivalence -------------------------------------------------
//
// The event-driven engine (KernelConfig::event_driven, the default) must
// reproduce the slice-stepped reference loop bit-for-bit on every
// observable: jiffy counters, cycle-exact ground truth, every meter's
// verdict, fault/switch/signal counts, and the final clock — for every
// attack in the roster and across every scenario axis the sweeps vary.

TEST(EventEngine, MatchesSliceEngineAcrossAllAttacks) {
  for (auto& [label, make] : roster_programs()) {
    SCOPED_TRACE(label);
    const AccountingSnapshot event =
        run_attack_accounting(make, false, /*event_driven=*/true);
    const AccountingSnapshot slice =
        run_attack_accounting(make, false, /*event_driven=*/false);
    expect_snapshots_equal(event, slice);
  }
}

TEST(EventEngine, MatchesSliceEngineAcrossScenarioAxes) {
  struct Scenario {
    const char* label;
    sim::SimConfig sc;
  };
  std::vector<Scenario> scenarios;
  {
    Scenario s{"cfs", {}};
    s.sc.scheduler = sim::SchedulerKind::kCfs;
    scenarios.push_back(s);
  }
  {
    Scenario s{"hz100", {}};
    s.sc.kernel.hz = TimerHz{100};
    scenarios.push_back(s);
  }
  {
    Scenario s{"hz1000", {}};
    s.sc.kernel.hz = TimerHz{1000};
    scenarios.push_back(s);
  }
  {
    Scenario s{"cpu1ghz", {}};
    s.sc.kernel.cpu = CpuHz{1'000'000'000};
    scenarios.push_back(s);
  }
  {
    Scenario s{"hires-timers", {}};
    s.sc.kernel.jiffy_resolution_timers = false;
    scenarios.push_back(s);
  }
  {
    Scenario s{"ptrace-privileged", {}};
    s.sc.kernel.ptrace_policy = PtracePolicy::kPrivilegedOnly;
    scenarios.push_back(s);
  }
  {
    Scenario s{"low-ram", {}};
    s.sc.kernel.ram_frames = 512;
    scenarios.push_back(s);
  }

  // Probes chosen to stress each event source: the quiet baseline (long
  // idle stretches), the scheduling attack (sleeps + fork storms), the
  // interrupt flood (NIC arrivals) and the exception flood (disk I/O).
  const std::vector<std::string> probes = {"scheduling", "interrupt-flood",
                                           "exception-flood"};
  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.label);
    {
      SCOPED_TRACE("baseline");
      expect_snapshots_equal(
          run_attack_accounting(nullptr, false, true, scenario.sc),
          run_attack_accounting(nullptr, false, false, scenario.sc));
    }
    for (const std::string& probe : probes) {
      SCOPED_TRACE(probe);
      const core::AttackFactory make = bench::roster_attack(0.02, probe);
      expect_snapshots_equal(
          run_attack_accounting(make, false, true, scenario.sc),
          run_attack_accounting(make, false, false, scenario.sc));
    }
  }
}

// The per-group accumulators must agree with a brute-force sum over every
// PCB in the group — the invariant the O(1) group_usage rests on. Exercised
// on a fork-storm run (thousands of short-lived group members).
TEST(AccountingFlush, GroupAccumulatorsMatchPerProcessSums) {
  const AccountingSnapshot snap = run_attack_accounting(
      [] {
        return std::make_unique<attacks::SchedulingAttack>(
            bench::fork_params(0.02, -10));
      },
      false);
  std::map<std::int32_t, std::array<std::uint64_t, 10>> sums;
  for (const auto& [pid, p] : snap.procs) {
    auto& g = sums[snap.proc_tgid.at(pid)];
    g[0] += std::get<1>(p);   // tick utime
    g[1] += std::get<2>(p);   // tick stime
    g[2] += std::get<3>(p);   // true user
    g[3] += std::get<4>(p);   // true system
    g[4] += std::get<5>(p);   // minor faults
    g[5] += std::get<6>(p);   // major faults
    g[6] += std::get<7>(p);   // voluntary switches
    g[7] += std::get<8>(p);   // involuntary switches
    g[8] += std::get<9>(p);   // signals received
    g[9] += std::get<10>(p);  // debug exceptions
  }
  EXPECT_GT(snap.procs.size(), 100u);  // the fork storm actually forked
  EXPECT_EQ(sums, snap.groups);
}

// --- memory tracks live work ----------------------------------------------------
//
// An exited process keeps its pid slot as a tombstone of identity and
// accounting; its program image and execution state are freed at exit, so
// a fork storm's footprint follows the processes alive at once, not the
// number it ever created.

/// Audits, at every process creation and exit, that no more processes hold
/// a Program image than are alive or zombie.
struct PayloadAudit final : AccountingHook {
  const Kernel* kernel = nullptr;
  std::size_t audits = 0;
  std::size_t violations = 0;
  std::size_t peak_holding = 0;

  void audit() {
    std::size_t holding = 0;
    std::size_t live_or_zombie = 0;
    for (const Pid pid : kernel->all_pids()) {
      const Process& p = kernel->process(pid);
      if (p.program != nullptr) ++holding;
      if (p.state != ProcState::kReaped) ++live_or_zombie;
    }
    ++audits;
    if (holding > live_or_zombie) ++violations;
    peak_holding = std::max(peak_holding, holding);
  }
  void on_process_created(Cycles, Pid, Tgid, Pid, std::string_view) override { audit(); }
  void on_process_exited(Cycles, Pid, Tgid, int) override { audit(); }
};

/// Forwards to a Program the test keeps alive past the process's exit.
class RetainedProgram final : public Program {
 public:
  explicit RetainedProgram(std::shared_ptr<Program> inner) : inner_(std::move(inner)) {}
  Step next(ProcessContext& ctx) override { return inner_->next(ctx); }
  std::string name() const override { return inner_->name(); }

 private:
  std::shared_ptr<Program> inner_;
};

struct ForkLoopRun {
  std::size_t audits = 0;
  std::size_t violations = 0;
  std::size_t peak_holding = 0;
  Pid first_child{};
  CpuUsageTicks first_child_ticks;
  CpuUsageCycles first_child_cycles;
  ProcState first_child_state = ProcState::kReady;
  bool first_child_program = true;
  std::size_t pids = 0;
  // Victim snapshot: jiffy and cycle usage, switches, final clock.
  std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
             std::uint64_t, std::uint64_t, std::uint64_t>
      victim;
  std::array<std::uint64_t, 4> forker_group{};
};

/// A victim computes while a forker runs `children` sequential
/// fork → wait rounds of short-lived children. `keep_payload` has the test
/// retain every child's program image past its exit.
ForkLoopRun run_fork_loop(std::size_t children, bool keep_payload) {
  auto k = make_kernel();
  PayloadAudit audit;
  audit.kernel = k.get();
  k->add_hook(&audit);

  auto kept = std::make_shared<std::vector<std::shared_ptr<Program>>>();
  const ProgramFactory noop = make_step_list("child", {compute(Cycles{20'000})});
  const ProgramFactory child =
      keep_payload ? ProgramFactory([kept, noop]() -> std::unique_ptr<Program> {
        kept->push_back(std::shared_ptr<Program>(noop()));
        return std::make_unique<RetainedProgram>(kept->back());
      })
                   : noop;
  struct Loop {
    std::size_t forked = 0;
    bool wait_next = false;
  };
  auto loop = std::make_shared<Loop>();
  const Pid victim = k->spawn(
      {"victim", make_step_list("victim", {compute(ms(40)), compute(ms(40))}),
       Nice{0}, true});
  const Pid forker = k->spawn(
      {"forker",
       make_generator("forker",
                      [loop, child, children](ProcessContext&) -> std::optional<Step> {
                        if (loop->wait_next) {
                          loop->wait_next = false;
                          return syscall(SysWait{});
                        }
                        if (loop->forked == children) return std::nullopt;
                        ++loop->forked;
                        loop->wait_next = true;
                        return syscall(SysFork{child});
                      }),
       Nice{0}, true});
  k->run();
  EXPECT_TRUE(k->all_work_done());
  EXPECT_EQ(loop->forked, children);
  k->memory().check_invariants();

  ForkLoopRun run;
  run.audits = audit.audits;
  run.violations = audit.violations;
  run.peak_holding = audit.peak_holding;
  run.pids = k->all_pids().size();
  // A fork child is named after its parent until it execs.
  const std::optional<Pid> first = k->find_pid_by_name("forker+child");
  if (first) {
    const Process& c = k->process(*first);
    run.first_child = *first;
    run.first_child_ticks = c.tick_usage;
    run.first_child_cycles = c.true_usage;
    run.first_child_state = c.state;
    run.first_child_program = c.program != nullptr;
  }
  const Process& v = k->process(victim);
  run.victim = {v.tick_usage.utime.v,   v.tick_usage.stime.v,
                v.true_usage.user.v,    v.true_usage.system.v,
                v.voluntary_switches,   v.involuntary_switches,
                k->now().v};
  const GroupUsage g = k->group_usage(k->process(forker).tgid);
  run.forker_group = {g.ticks.utime.v, g.ticks.stime.v, g.true_cycles.user.v,
                      g.true_cycles.system.v};
  return run;
}

TEST(ProcessTombstones, MemoryTracksLiveWorkAcrossAForkLoop) {
  constexpr std::size_t kChildren = 5000;
  const ForkLoopRun freed = run_fork_loop(kChildren, /*keep_payload=*/false);
  EXPECT_EQ(freed.pids, kChildren + 2);
  // Audited at every creation and exit: programs never outnumber the
  // processes alive or zombie — victim, forker and at most one child.
  EXPECT_EQ(freed.audits, 2 * (kChildren + 2));
  EXPECT_EQ(freed.violations, 0u);
  EXPECT_LE(freed.peak_holding, 3u);

  // A reaped child still answers by name and for its accounting.
  EXPECT_EQ(freed.first_child, Pid{3});
  EXPECT_EQ(freed.first_child_state, ProcState::kReaped);
  EXPECT_FALSE(freed.first_child_program);
  EXPECT_GE(freed.first_child_cycles.user.v, 20'000u);
  EXPECT_GT(freed.first_child_cycles.system.v, 0u);

  // Freeing the payload changes no observation: the same run with every
  // child's program image retained past its exit.
  const ForkLoopRun kept = run_fork_loop(kChildren, /*keep_payload=*/true);
  EXPECT_EQ(freed.victim, kept.victim);
  EXPECT_EQ(freed.forker_group, kept.forker_group);
  EXPECT_EQ(freed.first_child_ticks.utime, kept.first_child_ticks.utime);
  EXPECT_EQ(freed.first_child_ticks.stime, kept.first_child_ticks.stime);
  EXPECT_EQ(freed.first_child_cycles.user, kept.first_child_cycles.user);
  EXPECT_EQ(freed.first_child_cycles.system, kept.first_child_cycles.system);
  EXPECT_EQ(freed.pids, kept.pids);
}

}  // namespace
}  // namespace mtr::kernel
