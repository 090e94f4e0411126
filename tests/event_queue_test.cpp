// Event-queue unit suite: deterministic ordering (time, then the reference
// dispatch rank, then stable ties), lazy cancel/reschedule of sleep
// expiries, and leap-over-tick boundary cases — an event landing exactly on
// a jiffy edge must charge the tick to the same context as the slice-
// stepped reference loop.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "exec/program_base.hpp"
#include "kernel/event_queue.hpp"
#include "kernel/kernel.hpp"
#include "kernel/o1_scheduler.hpp"

namespace mtr::kernel {
namespace {

using exec::compute;
using exec::make_step_list;
using exec::syscall;

// --- ordering ----------------------------------------------------------------

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.push(Cycles{300}, EventKind::kTimerTick);
  q.push(Cycles{100}, EventKind::kSleepExpiry, Pid{4});
  q.push(Cycles{200}, EventKind::kDiskCompletion);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().at, Cycles{100});
  EXPECT_EQ(q.pop().at, Cycles{200});
  EXPECT_EQ(q.pop().at, Cycles{300});
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesFollowReferenceDispatchRank) {
  // The slice loop's tie priority at equal timestamps: timer, disk, nic,
  // sleepers. Insert in reverse rank order to prove it isn't insertion
  // order doing the work.
  EventQueue q;
  q.push(Cycles{500}, EventKind::kSleepExpiry, Pid{2});
  q.push(Cycles{500}, EventKind::kNicArrival);
  q.push(Cycles{500}, EventKind::kDiskCompletion);
  q.push(Cycles{500}, EventKind::kTimerTick);
  EXPECT_EQ(q.pop().kind, EventKind::kTimerTick);
  EXPECT_EQ(q.pop().kind, EventKind::kDiskCompletion);
  EXPECT_EQ(q.pop().kind, EventKind::kNicArrival);
  EXPECT_EQ(q.pop().kind, EventKind::kSleepExpiry);
}

TEST(EventQueue, SameKindTiesAreStableByInsertion) {
  EventQueue q;
  for (int i = 0; i < 8; ++i) q.push(Cycles{900}, EventKind::kDiskCompletion);
  std::uint64_t prev_seq = 0;
  for (int i = 0; i < 8; ++i) {
    const Event e = q.pop();
    if (i > 0) {
      EXPECT_GT(e.seq, prev_seq);
    }
    prev_seq = e.seq;
  }
}

TEST(EventQueue, SleepExpiryTiesWakeLowestPidFirst) {
  // The reference sleeper queue wakes the lowest pid at equal wake times —
  // regardless of the order the sleeps were issued in.
  EventQueue q;
  q.push(Cycles{700}, EventKind::kSleepExpiry, Pid{9});
  q.push(Cycles{700}, EventKind::kSleepExpiry, Pid{3});
  q.push(Cycles{700}, EventKind::kSleepExpiry, Pid{6});
  EXPECT_EQ(q.pop().pid, Pid{3});
  EXPECT_EQ(q.pop().pid, Pid{6});
  EXPECT_EQ(q.pop().pid, Pid{9});
}

TEST(EventQueue, PeekSecondReportsTheRunnerUp) {
  EventQueue q;
  EXPECT_EQ(q.peek(), nullptr);
  EXPECT_EQ(q.peek_second(), nullptr);
  q.push(Cycles{100}, EventKind::kTimerTick);
  EXPECT_EQ(q.peek()->at, Cycles{100});
  EXPECT_EQ(q.peek_second(), nullptr);
  q.push(Cycles{50}, EventKind::kDiskCompletion);
  q.push(Cycles{70}, EventKind::kNicArrival);
  EXPECT_EQ(q.peek()->at, Cycles{50});
  EXPECT_EQ(q.peek_second()->at, Cycles{70});
  q.pop();
  EXPECT_EQ(q.peek()->at, Cycles{70});
  EXPECT_EQ(q.peek_second()->at, Cycles{100});
}

// --- kernel-level: cancel, reschedule, jiffy edges ---------------------------
//
// Each scenario runs under both engines; the event queue's lazy
// invalidation must leave every observable identical to the slice loop's
// (which keeps its own stale entries in the sleeper priority queue).

KernelConfig engine_config(bool event_driven) {
  KernelConfig cfg;
  cfg.seed = 7;
  cfg.event_driven = event_driven;
  return cfg;
}

std::unique_ptr<Kernel> make_engine(bool event_driven) {
  KernelConfig cfg = engine_config(event_driven);
  return std::make_unique<Kernel>(cfg, std::make_unique<O1PriorityScheduler>(cfg.hz));
}

Cycles ticks(std::uint64_t n) {
  const KernelConfig cfg;
  return Cycles{tick_length(cfg.cpu, cfg.hz).v * n};
}

struct EngineOutcome {
  std::uint64_t final_now;
  std::uint64_t idle_ticks;
  std::uint64_t utime;
  std::uint64_t stime;
  std::uint64_t true_user;
  std::uint64_t true_system;
};

bool operator==(const EngineOutcome& a, const EngineOutcome& b) {
  return a.final_now == b.final_now && a.idle_ticks == b.idle_ticks &&
         a.utime == b.utime && a.stime == b.stime && a.true_user == b.true_user &&
         a.true_system == b.true_system;
}

EngineOutcome outcome_of(Kernel& k, Pid pid) {
  const Process& p = k.process(pid);
  return {k.now().v,           k.idle_ticks().v,     p.usage.ticks.utime.v,
          p.usage.ticks.stime.v, p.usage.true_cycles.user.v, p.usage.true_cycles.system.v};
}

TEST(EventQueueKernel, CancelledSleepEntryDoesNotWakeTheSleeperAgain) {
  // The sleeper asks for 40 ticks but a signal breaks the sleep after ~2;
  // it then sleeps 3 more ticks and exits. The 40-tick expiry entry goes
  // stale in both engines and must be discarded, not misdelivered.
  for (const bool event_driven : {true, false}) {
    SCOPED_TRACE(event_driven ? "event" : "slice");
    auto k = make_engine(event_driven);
    const Pid sleeper = k->spawn(
        {"sleeper",
         make_step_list("sleeper", {syscall(SysNanosleep{ticks(40)}),
                                    syscall(SysNanosleep{ticks(3)})}),
         Nice{0}, true});
    k->spawn({"waker",
              make_step_list("waker", {compute(ticks(2)),
                                       syscall(SysKill{sleeper, Signal::kUsr1})}),
              Nice{0}, true});
    k->run();
    EXPECT_TRUE(k->all_work_done());
    // Early wake + 3-tick re-sleep: far sooner than the original 40 ticks.
    EXPECT_LT(k->now().v, ticks(20).v);
    EXPECT_GT(k->now().v, ticks(4).v);
  }
}

TEST(EventQueueKernel, RescheduledSleepMatchesSliceEngine) {
  auto run = [](bool event_driven) {
    auto k = make_engine(event_driven);
    const Pid sleeper = k->spawn(
        {"sleeper",
         make_step_list("sleeper", {syscall(SysNanosleep{ticks(40)}),
                                    syscall(SysNanosleep{ticks(3)}),
                                    compute(ticks(1))}),
         Nice{0}, true});
    k->spawn({"waker",
              make_step_list("waker", {compute(ticks(2)),
                                       syscall(SysKill{sleeper, Signal::kUsr1})}),
              Nice{0}, true});
    k->run();
    return outcome_of(*k, sleeper);
  };
  EXPECT_TRUE(run(true) == run(false));
}

TEST(EventQueueKernel, WakeExactlyAtJiffyEdgeChargesTickToIdle) {
  // With jiffy-resolution timers the wake lands exactly on a tick edge.
  // The timer outranks the sleep expiry at the shared timestamp, so that
  // tick fires first — into an idle CPU — and must be charged to the idle
  // context, not to the about-to-wake sleeper. Both engines must agree on
  // the tick-by-tick split.
  auto run = [](bool event_driven) {
    auto k = make_engine(event_driven);
    const Pid job = k->spawn(
        {"job",
         make_step_list("job", {compute(Cycles{ticks(1).v / 2}),
                                syscall(SysNanosleep{ticks(5)}),
                                compute(ticks(2))}),
         Nice{0}, true});
    k->run();
    EXPECT_TRUE(k->all_work_done());
    return outcome_of(*k, job);
  };
  const EngineOutcome event = run(true);
  const EngineOutcome slice = run(false);
  EXPECT_TRUE(event == slice);
  // The sleep spans whole jiffies of idleness.
  EXPECT_GE(event.idle_ticks, 4u);
}

// The idle leap must actually engage (count > 1) on a long idle stretch —
// otherwise the O(events) claim silently degrades back to O(ticks).
struct BulkTickRecorder final : AccountingHook {
  std::uint64_t bulk_calls = 0;
  std::uint64_t bulk_ticks = 0;
  std::uint64_t single_calls = 0;
  void on_ticks(Cycles, Cycles, std::uint64_t count, Pid, Tgid, CpuMode) override {
    if (count == 1) {
      ++single_calls;
      return;
    }
    ++bulk_calls;
    bulk_ticks += count;
  }
};

TEST(EventQueueKernel, LongIdleStretchCoalescesIntoOneBulkUpdate) {
  auto k = make_engine(/*event_driven=*/true);
  BulkTickRecorder rec;
  k->add_hook(&rec);
  k->spawn({"napper", make_step_list("napper", {syscall(SysNanosleep{ticks(100)})}),
            Nice{0}, true});
  k->run();
  EXPECT_TRUE(k->all_work_done());
  // ~100 idle ticks must arrive in far fewer bulk updates.
  EXPECT_GE(rec.bulk_ticks + rec.single_calls, 99u);
  EXPECT_LE(rec.bulk_calls, 10u);
  EXPECT_GE(k->idle_ticks().v, 99u);
}

}  // namespace
}  // namespace mtr::kernel
