// Kernel engine tests: schedulers, process lifecycle, syscalls, signals,
// ptrace, jiffy accounting identities, cycle-conservation invariants, and
// batched-vs-unbatched accounting-flush equivalence.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "counting_alloc.hpp"
#include "exec/program_base.hpp"
#include "helpers.hpp"
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
  EXPECT_NEAR(static_cast<double>(p.usage.ticks.utime.v), 6.0, 1.0);
  EXPECT_GE(p.usage.true_cycles.user.v, ms(25).v);
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
  EXPECT_GE(c.usage.true_cycles.user.v, ms(16).v);  // 12 ms pre-exec + 4 ms post
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
  // Reference: every pid that names the group, scanned from the table.
  std::vector<Pid> scanned;
  Usage scanned_sum;
  for (const Pid pid : k->all_pids()) {
    if (k->process(pid).tgid != tg) continue;
    scanned.push_back(pid);
    scanned_sum += k->process(pid).usage;
  }
  EXPECT_EQ(scanned.size(), 3u);
  const auto members = k->group_members(tg);
  EXPECT_EQ(std::vector<Pid>(members.begin(), members.end()), scanned);
  const Usage u = k->group_usage(tg);
  EXPECT_EQ(u, scanned_sum);
  EXPECT_GE(u.true_cycles.user.v, ms(16).v);  // both workers' compute summed
  EXPECT_FALSE(k->memory().has_space(tg));
}

TEST(KernelLifecycle, LeaderExitingFirstLeavesTheSpaceToItsThread) {
  // The leader clones a thread and exits at once; the space must outlive
  // the leader until its last member exits, and the group's bill still
  // counts the dead leader.
  auto k = make_kernel();
  exec::ProgramFactory worker = make_step_list("w", {compute(ms(20))});
  const Pid leader = k->spawn(
      {"leader", make_step_list("leader", {syscall(SysClone{worker})}), Nice{0},
       true});
  const Tgid tg = k->process(leader).tgid;
  k->run(ms(5));
  ASSERT_FALSE(k->process(leader).alive());
  const auto members = k->group_members(tg);
  ASSERT_EQ(members.size(), 2u);
  const Pid thread = members[1];
  EXPECT_EQ(k->process(thread).tgid, tg);
  EXPECT_TRUE(k->process(thread).alive());
  EXPECT_TRUE(k->memory().has_space(tg));

  k->run();
  EXPECT_FALSE(k->process(thread).alive());
  EXPECT_FALSE(k->memory().has_space(tg));
  Usage sum = k->process(leader).usage;
  sum += k->process(thread).usage;
  EXPECT_EQ(k->group_usage(tg), sum);
  EXPECT_GE(sum.true_cycles.user.v, ms(20).v);
  EXPECT_GT(k->process(leader).usage.true_cycles.total().v, 0u);
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
  for (const Pid pid : k->all_pids()) charged += k->process(pid).usage.ticks.total();
  EXPECT_EQ(charged.v, k->timer().ticks_fired());
}

TEST(Accounting, TrueCyclesConservation) {
  auto k = make_kernel();
  (void)k->spawn({"a", make_step_list("a", {compute(ms(40))}), Nice{0}, true});
  (void)k->spawn({"b", make_step_list("b", {compute(ms(30))}), Nice{5}, true});
  const Cycles end = k->run();
  Cycles total = k->idle_cycles().total();
  for (const Pid pid : k->all_pids()) total += k->process(pid).usage.true_cycles.total();
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
  EXPECT_GT(p.usage.true_cycles.system.v, p.usage.true_cycles.user.v);
  EXPECT_GT(p.usage.ticks.stime.v, 0u);
}

// --- scheduling ---------------------------------------------------------------

TEST(Scheduling, EqualNiceSharesRoughlyEqually) {
  auto k = make_kernel();
  const Pid a = k->spawn({"a", make_step_list("a", {compute(ms(400))}), Nice{0}, true});
  const Pid b = k->spawn({"b", make_step_list("b", {compute(ms(400))}), Nice{0}, true});
  // Run only half the total demand: both should have progressed similarly.
  k->run(seconds_to_cycles(0.4, CpuHz{}));
  const auto ua = k->process(a).usage.true_cycles.user.v;
  const auto ub = k->process(b).usage.true_cycles.user.v;
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
  EXPECT_GT(k->process(hi).usage.true_cycles.user.v, 5 * k->process(lo).usage.true_cycles.user.v);
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
  EXPECT_GE(h.usage.involuntary_switches, 1u);
}

TEST(Scheduling, CfsFairWeightedSharing) {
  KernelConfig cfg = tiny_config();
  auto k = std::make_unique<Kernel>(cfg, std::make_unique<CfsScheduler>(cfg.cpu));
  const Pid a = k->spawn({"a", make_step_list("a", {compute(ms(900))}), Nice{0}, true});
  const Pid b = k->spawn({"b", make_step_list("b", {compute(ms(900))}), Nice{5}, true});
  k->run(seconds_to_cycles(0.5, CpuHz{}));
  const double ua = static_cast<double>(k->process(a).usage.true_cycles.user.v);
  const double ub = static_cast<double>(k->process(b).usage.true_cycles.user.v);
  // weight(0)/weight(5) = 1024/335 ≈ 3.06.
  EXPECT_GT(ua / ub, 1.8);
  EXPECT_LT(ua / ub, 5.0);
}

// --- syscalls ------------------------------------------------------------------

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
  EXPECT_LT(v.usage.true_cycles.user.v, ms(400).v);
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
                            syscall(SysPtrace{PtraceOp::kCont, victim})}),
       Nice{0}, true});
  k->run();
  EXPECT_FALSE(k->process(victim).alive());  // finished after resume
  EXPECT_FALSE(k->process(tracer).alive());
  EXPECT_GE(k->process(victim).usage.signals_received, 1u);  // the attach SIGSTOP
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
  body.mem.hot = HotAccess{VAddr{0xbeef000}, ms(0.5)};
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
  EXPECT_GE(v.usage.debug_exceptions, 20u);
  EXPECT_GT(v.usage.true_cycles.system.v, 0u);
}

// --- memory profiles --------------------------------------------------------------

/// Minor faults of one process that runs `steps` alone on a fresh kernel.
std::uint64_t minor_faults_of(std::vector<Step> steps) {
  auto k = make_kernel();
  const Pid pid =
      k->spawn({"toucher", make_step_list("toucher", std::move(steps)), Nice{0}, true});
  k->run();
  k->memory().check_invariants();
  return k->process(pid).usage.minor_faults;
}

TEST(MemoryProfiles, PageCursorCarriesAcrossSteps) {
  // Each step is long enough for exactly two touches (at 100k and 200k
  // cycles). The second step sweeps on to pages 2 and 3; a cursor reset
  // per step would re-touch pages 0 and 1 and fault only twice.
  const MemoryProfile mem{PageId{0x40}, 4, Cycles{100'000}, {}};
  const Step step = exec::compute_mem(Cycles{250'000}, mem, "two-touches");
  EXPECT_EQ(minor_faults_of({step, step}), 4u);
}

TEST(MemoryProfiles, PageWalkWrapsAtPageCount) {
  // Six touches over three pages: each page faults once, then the walk
  // wraps to the run's first page and hits.
  const MemoryProfile mem{PageId{0x40}, 3, Cycles{100'000}, {}};
  EXPECT_EQ(minor_faults_of({exec::compute_mem(Cycles{650'000}, mem, "six-touches")}),
            3u);
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
  EXPECT_GT(k->process(b).usage.true_cycles.user.v, k->process(a).usage.true_cycles.user.v);
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
  std::map<std::int32_t, std::pair<std::string, Usage>> procs;  // pid -> name, usage
  std::map<std::int32_t, std::int32_t> proc_tgid;  // pid -> tgid
  std::map<std::int32_t, Usage> groups;            // tgid -> group_usage
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

  // The tick ledger: every timer fire is billed exactly once, to a process
  // or to the idle context, and the commodity meter saw the same idle.
  std::uint64_t billed_ticks = 0;
  for (const Pid pid : s.kernel().all_pids())
    billed_ticks += s.kernel().process(pid).usage.ticks.total().v;
  EXPECT_EQ(billed_ticks + s.kernel().idle_ticks().v,
            s.kernel().timer().ticks_fired());
  EXPECT_EQ(tick.idle_ticks().v, s.kernel().idle_ticks().v);

  // The cycle ledger: charge() is the only place now() advances, so every
  // cycle lands on exactly one process or on the idle context.
  std::uint64_t true_cycles = 0;
  for (const Pid pid : s.kernel().all_pids())
    true_cycles += s.kernel().process(pid).usage.true_cycles.total().v;
  EXPECT_EQ(true_cycles + s.kernel().idle_cycles().total().v, s.kernel().now().v);

  AccountingSnapshot snap;
  snap.final_now = s.kernel().now().v;
  for (const Pid pid : s.kernel().all_pids()) {
    const Process& p = s.kernel().process(pid);
    snap.procs[pid.v] = {p.name, p.usage};
    snap.proc_tgid[pid.v] = p.tgid.v;
    if (snap.groups.contains(p.tgid.v)) continue;
    const Usage g = s.kernel().group_usage(p.tgid);
    snap.groups[p.tgid.v] = g;
    const CpuUsageTicks mt = tick.usage(p.tgid);
    const CpuUsageCycles mc = tsc.usage(p.tgid);
    const CpuUsageCycles mp = pais.usage(p.tgid);
    // The metering service bills tick and TSC from the group's ledger; the
    // two independent meters must agree with it.
    EXPECT_EQ(mt.utime.v, g.ticks.utime.v) << p.tgid;
    EXPECT_EQ(mt.stime.v, g.ticks.stime.v) << p.tgid;
    EXPECT_EQ(mc.user.v, g.true_cycles.user.v) << p.tgid;
    EXPECT_EQ(mc.system.v, g.true_cycles.system.v) << p.tgid;
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

// --- the charge stream under a NIC flood ------------------------------------------
//
// The event engine handles a run of flood arrivals in place instead of
// through its main loop. Every charge the hooks see — time, process, kind,
// amount and beneficiary, in order — and the clock at every run() return
// must match the slice loop's, wherever the caller's run() limits land:
// inside a compute slice, inside a handler, or on a tick.

struct ChargeRecord {
  std::uint64_t now;
  std::int32_t pid;
  std::int32_t tgid;
  WorkKind kind;
  std::uint64_t amount;
  std::int32_t beneficiary;
  bool operator==(const ChargeRecord&) const = default;
};

struct ChargeRecorder final : AccountingHook {
  std::vector<ChargeRecord> charges;
  std::uint8_t events() const override { return event_mask(HookEvent::kCycles); }
  void on_cycles(Cycles now, Pid pid, Tgid tg, WorkKind kind, Cycles amount,
                 Pid beneficiary) override {
    charges.push_back({now.v, pid.v, tg.v, kind, amount.v, beneficiary.v});
  }
};

struct FloodRun {
  std::vector<ChargeRecord> charges;
  std::vector<std::uint64_t> stops;  // now() after every run()
};

enum class FloodVictim { kWhetstone, kOurs, kThrashedOurs };

/// Floods `victim` at the roster rate and steps the kernel by hand, one
/// run(now + stride) at a time (a zero stride is one tick), for at most
/// 0.15 virtual seconds.
FloodRun run_flood_by_hand(FloodVictim victim, sim::SchedulerKind sched,
                           Cycles stride, bool unbatched, bool event_driven) {
  sim::SimConfig sc;
  sc.scheduler = sched;
  sc.kernel.seed = 1234;
  sc.kernel.unbatched_accounting = unbatched;
  sc.kernel.event_driven = event_driven;
  sim::Simulation s(sc);
  ChargeRecorder recorder;
  s.kernel().add_hook(&recorder);

  const auto info = workloads::make_workload(victim == FloodVictim::kWhetstone
                                                 ? workloads::WorkloadKind::kWhetstone
                                                 : workloads::WorkloadKind::kOurs,
                                             {0.02});
  const Pid pid = s.launch(info.image);
  attacks::ThrashingAttack thrashing;  // arms the victim's breakpoint
  attacks::AttackContext ctx{s, pid, s.kernel().process(pid).tgid, info.hot_addr};
  if (victim == FloodVictim::kThrashedOurs) thrashing.engage(ctx);
  s.kernel().start_nic_flood(bench::kFloodPacketsPerSecond);

  if (stride.v == 0) stride = s.tick();
  FloodRun run;
  const Cycles end = s.kernel().now() + seconds_to_cycles(0.15, sc.kernel.cpu);
  while (!s.exited(pid) && s.kernel().now() < end) {
    s.kernel().run(s.kernel().now() + stride);
    run.stops.push_back(s.kernel().now().v);
  }
  run.charges = std::move(recorder.charges);
  return run;
}

TEST(EventEngine, FloodChargeStreamMatchesSliceEngine) {
  const std::pair<const char*, FloodVictim> victims[] = {
      {"whetstone", FloodVictim::kWhetstone},
      {"ours", FloodVictim::kOurs},
      {"ours+thrashing", FloodVictim::kThrashedOurs}};
  for (const auto& [victim_label, victim] : victims) {
    for (const auto sched : {sim::SchedulerKind::kO1, sim::SchedulerKind::kCfs}) {
      for (const std::uint64_t stride : {3'000u, 10'000u, 47'000u, 0u}) {
        for (const bool unbatched : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << victim_label << " " << sim::to_string(sched) << " stride "
                       << (stride == 0 ? "tick" : std::to_string(stride))
                       << (unbatched ? " unbatched" : " batched"));
          const FloodRun event =
              run_flood_by_hand(victim, sched, Cycles{stride}, unbatched, true);
          const FloodRun slice =
              run_flood_by_hand(victim, sched, Cycles{stride}, unbatched, false);
          EXPECT_EQ(event.stops, slice.stops);
          ASSERT_GT(event.charges.size(), 1000u);
          const auto [e, s] = std::mismatch(event.charges.begin(), event.charges.end(),
                                            slice.charges.begin(), slice.charges.end());
          EXPECT_TRUE(e == event.charges.end() && s == slice.charges.end())
              << "charge streams of " << event.charges.size() << " and "
              << slice.charges.size() << " diverge at charge "
              << (e - event.charges.begin());
        }
      }
    }
  }
}

// group_usage must agree with a brute-force sum over every PCB that names
// the group, not just the members its leader lists. Exercised on a
// fork-storm run (thousands of short-lived one-member groups); the thread
// path is checked by ThreadsShareGroupAndSpace and Brute.SpawnsRequestedThreads.
TEST(AccountingFlush, GroupAccumulatorsMatchPerProcessSums) {
  const AccountingSnapshot snap = run_attack_accounting(
      [] {
        return std::make_unique<attacks::SchedulingAttack>(
            bench::fork_params(0.02, -10));
      },
      false);
  std::map<std::int32_t, Usage> sums;
  for (const auto& [pid, p] : snap.procs) sums[snap.proc_tgid.at(pid)] += p.second;
  EXPECT_GT(snap.procs.size(), 100u);  // the fork storm actually forked
  EXPECT_EQ(sums, snap.groups);
}

// --- hook subscriptions ------------------------------------------------------------
//
// Every dispatch site sends its event only to the hooks that declared it:
// a cycles-only hook sees the same charges as an all-events hook on the
// same run and nothing else, while the all-events hook sees all six kinds.

TEST(HookSubscription, KernelSendsEachEventOnlyToItsObservers) {
  sim::SimConfig sc;
  sc.kernel.seed = 1234;
  sim::Simulation s(sc);
  test::CyclesOnlyCounter cycles_only;
  test::EventCounter all;
  s.kernel().add_hook(&cycles_only);
  s.kernel().add_hook(&all);
  const auto info =
      workloads::make_workload(workloads::WorkloadKind::kWhetstone, {0.02});
  const Pid victim = s.launch(info.image);
  ASSERT_TRUE(s.run_until_exit(victim));
  s.run_all(seconds_to_cycles(1.0, sc.kernel.cpu));

  for (std::size_t e = 0; e < kHookEventCount; ++e)
    EXPECT_GT(all.seen[e], 0u) << "event " << e;
  EXPECT_EQ(cycles_only.seen[0], all.seen[0]);
  for (std::size_t e = 1; e < kHookEventCount; ++e)
    EXPECT_EQ(cycles_only.seen[e], 0u) << "event " << e;
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
  Usage first_child_usage;
  ProcState first_child_state = ProcState::kReady;
  bool first_child_program = true;
  std::size_t pids = 0;
  Usage victim;
  Cycles end{0};  // the final clock
  Usage forker_group;
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
  // The forker's first child; a reaped child still names its parent.
  const auto pids = k->all_pids();
  const auto first = std::ranges::find_if(
      pids, [&](Pid pid) { return k->process(pid).parent == forker; });
  if (first != pids.end()) {
    const Process& c = k->process(*first);
    run.first_child = *first;
    run.first_child_usage = c.usage;
    run.first_child_state = c.state;
    run.first_child_program = c.program != nullptr;
  }
  run.victim = k->process(victim).usage;
  run.end = k->now();
  run.forker_group = k->group_usage(k->process(forker).tgid);
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

  // A reaped child still answers for its identity and accounting.
  EXPECT_EQ(freed.first_child, Pid{3});
  EXPECT_EQ(freed.first_child_state, ProcState::kReaped);
  EXPECT_FALSE(freed.first_child_program);
  EXPECT_GE(freed.first_child_usage.true_cycles.user.v, 20'000u);
  EXPECT_GT(freed.first_child_usage.true_cycles.system.v, 0u);

  // Freeing the payload changes no observation: the same run with every
  // child's program image retained past its exit.
  const ForkLoopRun kept = run_fork_loop(kChildren, /*keep_payload=*/true);
  EXPECT_EQ(freed.victim, kept.victim);
  EXPECT_EQ(freed.end, kept.end);
  EXPECT_EQ(freed.forker_group, kept.forker_group);
  EXPECT_EQ(freed.first_child_usage, kept.first_child_usage);
  EXPECT_EQ(freed.pids, kept.pids);
}

TEST(ProcessTombstones, HeapCostPerForkIsBounded) {
  // The steady-state heap cost of one fork → exit → reap round: the
  // difference between two fork loops over their difference in children,
  // so the kernel's set-up and the victim's run cancel out. The two counts
  // put every vector the loop grows exactly one doubling apart. The bounds
  // are today's figures (1208.32 bytes in 9.048 calls), so any new per-fork
  // allocation fails the test.
  constexpr std::size_t kFew = 1000;
  constexpr std::size_t kMany = 2000;
  const test::HeapCount few = test::heap_used_by([] { run_fork_loop(kFew, false); });
  const test::HeapCount many = test::heap_used_by([] { run_fork_loop(kMany, false); });
  const double bytes = static_cast<double>(many.bytes - few.bytes) / (kMany - kFew);
  const double calls = static_cast<double>(many.calls - few.calls) / (kMany - kFew);
  EXPECT_LE(bytes, 1208.4);
  EXPECT_LE(calls, 9.048);
}

}  // namespace
}  // namespace mtr::kernel
