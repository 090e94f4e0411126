#include "kernel/kernel.hpp"

#include <algorithm>
#include <utility>

#include "common/ensure.hpp"
#include "kernel/syscalls.hpp"
#include "trace/metrics.hpp"
#include "trace/series.hpp"
#include "trace/tracer.hpp"

namespace mtr::kernel {

const char* to_string(PtracePolicy p) {
  return p == PtracePolicy::kPrivilegedOnly ? "privileged_only" : "allow_all";
}

const char* to_string(WorkKind k) {
  switch (k) {
    case WorkKind::kUserCompute: return "user";
    case WorkKind::kSyscallEntry: return "sys-entry";
    case WorkKind::kSyscallBody: return "sys-body";
    case WorkKind::kSyscallExit: return "sys-exit";
    case WorkKind::kTimerIrq: return "timer-irq";
    case WorkKind::kDeviceIrq: return "device-irq";
    case WorkKind::kContextSwitch: return "ctx-switch";
    case WorkKind::kSignalGenerate: return "sig-gen";
    case WorkKind::kSignalDeliver: return "sig-deliver";
    case WorkKind::kPageFaultMinor: return "fault-minor";
    case WorkKind::kPageFaultMajor: return "fault-major";
    case WorkKind::kDebugException: return "debug-exc";
    case WorkKind::kIdle: return "idle";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Program-visible context.
// ---------------------------------------------------------------------------

class KernelProcessContext final : public ProcessContext {
 public:
  KernelProcessContext(Kernel& k, Process& p) : kernel_(k), proc_(p) {}

  Pid pid() const override { return proc_.pid; }
  Tgid tgid() const override { return proc_.tgid; }
  std::int64_t last_result() const override { return proc_.last_syscall_result; }
  Cycles now() const override { return kernel_.now_; }

 private:
  Kernel& kernel_;
  Process& proc_;
};

// ---------------------------------------------------------------------------
// Construction and setup.
// ---------------------------------------------------------------------------

Kernel::Kernel(KernelConfig config, std::unique_ptr<Scheduler> scheduler)
    : config_(config),
      scheduler_(std::move(scheduler)),
      mm_(config.ram_frames, config.reclaim_batch),
      timer_(config.cpu, config.hz),
      nic_(config.cpu),
      disk_(config.costs.disk_latency),
      rng_(config.seed) {
  MTR_ENSURE_MSG(scheduler_ != nullptr, "kernel requires a scheduler");
  // The timer is perpetual: the calendar queue always holds exactly one
  // live tick entry, re-armed by every dispatch.
  if (config_.event_driven) events_.push(timer_.next_fire(), EventKind::kTimerTick);
}

Kernel::~Kernel() = default;

Pid Kernel::allocate_pid() { return Pid{next_pid_++}; }

const Process& Kernel::group_leader(Tgid tg) const {
  MTR_ENSURE_MSG(has_process(Pid{tg.v}) && process(Pid{tg.v}).tgid == tg,
                 "no processes in thread group " << tg.v);
  return process(Pid{tg.v});
}

Process& Kernel::create_process(std::string name, std::unique_ptr<Program> program,
                                Pid parent, Tgid tgid, Nice nice, bool privileged) {
  MTR_ENSURE_MSG(program != nullptr, "process needs a program");
  const Pid pid = allocate_pid();
  const Tgid group = tgid.valid() ? tgid : Tgid{pid.v};
  auto proc = std::make_unique<Process>(pid, group, parent, std::move(name),
                                        std::move(program), nice);
  proc->privileged = privileged;
  if (!tgid.valid()) mm_.create_space(group);
  Process& ref = *proc;
  procs_.push_back(std::move(proc));
  MTR_ENSURE(procs_.size() == static_cast<std::size_t>(pid.v));  // dense arena
  ++alive_count_;

  flush_charges();
  hooks_.each<HookEvent::kProcessCreated>([&](AccountingHook& h) {
    h.on_process_created(now_, pid, group, parent, ref.program->name());
  });
  return ref;
}

Pid Kernel::spawn(SpawnSpec spec) {
  MTR_ENSURE_MSG(spec.program, "spawn needs a program factory");
  Process& p = create_process(spec.name, spec.program(), Pid{}, Tgid{}, spec.nice,
                              spec.privileged);
  p.state = ProcState::kReady;
  scheduler_->enqueue(p, now_);
  if (current_ != nullptr && scheduler_->should_preempt(*current_, p))
    need_resched_ = true;
  return p.pid;
}

Process& Kernel::process(Pid pid) {
  MTR_ENSURE_MSG(has_process(pid), "unknown " << pid);
  return *procs_[static_cast<std::size_t>(pid.v) - 1];
}

const Process& Kernel::process(Pid pid) const {
  MTR_ENSURE_MSG(has_process(pid), "unknown " << pid);
  return *procs_[static_cast<std::size_t>(pid.v) - 1];
}

Usage Kernel::group_usage(Tgid tg) const {
  Usage sum;
  for (const Pid pid : group_members(tg)) sum += process(pid).usage;
  return sum;
}

void Kernel::set_nice(Pid pid, Nice nice) {
  Process& p = process(pid);
  if (tracer_ != nullptr) tracer_->instant(now_, "set-nice", p.pid, p.tgid);
  const Nice clamped{std::clamp<std::int8_t>(nice.v, kNiceMin.v, kNiceMax.v)};
  const bool queued = p.sched.queued;
  if (queued) scheduler_->dequeue(p);  // leave the old priority level first
  p.nice = clamped;
  p.sched.quantum_ticks_left = 0;  // timeslice re-derived from the new level
  if (queued) scheduler_->enqueue(p, now_);
  if (current_ != nullptr && p.runnable() && &p != current_ &&
      scheduler_->should_preempt(*current_, p)) {
    need_resched_ = true;
  }
}

void Kernel::force_kill(Pid pid) {
  if (!has_process(pid)) return;
  Process& p = process(pid);
  if (!p.alive()) return;
  if (tracer_ != nullptr) tracer_->instant(now_, "force-kill", p.pid, p.tgid);
  p.pending_signals.push_back(PendingSignal{Signal::kKill, Pid{}});
  if (p.state == ProcState::kSleeping || p.state == ProcState::kStopped) {
    wake_process(p);
  }
}

bool Kernel::all_work_done() const { return alive_count_ == 0; }

// ---------------------------------------------------------------------------
// Accounting primitives.
// ---------------------------------------------------------------------------

void Kernel::charge(Process* p, WorkKind kind, Cycles amount, Pid beneficiary) {
  if (amount.v == 0) return;
  now_ += amount;
  if (p != nullptr) {
    if (mode_of(kind) == CpuMode::kUser) {
      p->usage.true_cycles.user += amount;
    } else {
      p->usage.true_cycles.system += amount;
    }
    scheduler_->on_ran(*p, amount);
    // Only cycle observers and the tracer read a charge: a run with neither
    // skips the batch, and a traced one still batches so flush_charges sees
    // the spans.
    if (hooks_.observed<HookEvent::kCycles>() || tracer_ != nullptr)
      enqueue_charge(p->pid, p->tgid, kind, amount, beneficiary);
  } else {
    if (mode_of(kind) == CpuMode::kUser) {
      idle_cycles_.user += amount;
    } else {
      idle_cycles_.system += amount;
    }
    if (hooks_.observed<HookEvent::kCycles>() || tracer_ != nullptr)
      enqueue_charge(kIdlePid, Tgid{0}, kind, amount, beneficiary);
  }
}

void Kernel::enqueue_charge(Pid pid, Tgid tg, WorkKind kind, Cycles amount,
                            Pid beneficiary) {
  if (stats_ != nullptr) ++stats_->charges_enqueued;
  if (charge_batch_size_ > 0) {
    PendingCharge& last = charge_batch_[charge_batch_size_ - 1];
    if (last.pid == pid && last.kind == kind && last.beneficiary == beneficiary) {
      // Adjacent same-key charge: coalesce (tg is a function of pid).
      last.amount += amount;
      last.now = now_;
      return;
    }
  }
  if (charge_batch_size_ == kChargeBatchCap) flush_charges();
  charge_batch_[charge_batch_size_++] =
      PendingCharge{now_, pid, tg, beneficiary, kind, amount};
  if (config_.unbatched_accounting) flush_charges();
}

void Kernel::flush_charges() {
  if (charge_batch_size_ == 0) return;
  if (telemetry_ != nullptr)
    telemetry_->charge_batch.add(static_cast<double>(charge_batch_size_));
  // Coalesced charges flush as trace spans recorded at their end time; the
  // exporter subtracts the duration to recover the start.
  if (tracer_ != nullptr) {
    for (std::size_t i = 0; i < charge_batch_size_; ++i) {
      const PendingCharge& c = charge_batch_[i];
      tracer_->span(c.now, to_string(c.kind), c.pid, c.tg, c.amount,
                    c.beneficiary);
    }
  }
  if (stats_ != nullptr) ++stats_->charge_flushes;
  for (std::size_t i = 0; i < charge_batch_size_; ++i) {
    const PendingCharge& c = charge_batch_[i];
    hooks_.each<HookEvent::kCycles>([&](AccountingHook& h) {
      h.on_cycles(c.now, c.pid, c.tg, c.kind, c.amount, c.beneficiary);
    });
  }
  charge_batch_size_ = 0;
}

void Kernel::charge_idle(Cycles amount) {
  charge(nullptr, WorkKind::kIdle, amount, Pid{});
}

void Kernel::bill_ticks(Cycles first, std::uint64_t count, Process* p, CpuMode mode) {
  flush_charges();
  Pid pid = kIdlePid;
  Tgid tg{0};
  if (p == nullptr) {
    idle_ticks_ += Ticks{count};
  } else {
    pid = p->pid;
    tg = p->tgid;
    if (mode == CpuMode::kUser) {
      p->usage.ticks.utime += Ticks{count};
    } else {
      p->usage.ticks.stime += Ticks{count};
    }
  }
  if (tracer_ != nullptr) tracer_->tick(first, pid, tg, mode, count);
  const Cycles period = timer_.period();
  hooks_.each<HookEvent::kTicks>([&](AccountingHook& h) {
    h.on_ticks(first, period, count, pid, tg, mode);
  });
  if (stats_ != nullptr) stats_->timer_ticks += count;
}

void Kernel::sample_telemetry() {
  trace::Telemetry& t = *telemetry_;
  const std::uint64_t at = now_.v;
  const std::size_t queued = scheduler_->queue_depth();
  t.run_queue.sample(at, static_cast<std::int64_t>(queued));
  t.runnable.sample(
      at, static_cast<std::int64_t>(queued + (current_ != nullptr ? 1 : 0)));
  t.free_frames.sample(at, static_cast<std::int64_t>(mm_.frames_total()) -
                               static_cast<std::int64_t>(mm_.frames_used()));
  t.event_depth.sample(at, static_cast<std::int64_t>(events_.size()));
  if (t.victim.valid()) {
    // Whole jiffies billed at cpu/hz cycles each, minus cycle-exact truth:
    // the integer-valued gap the attacks inflate.
    const Usage u = group_usage(t.victim);
    const std::uint64_t billed =
        u.ticks.total().v * (config_.cpu.v / config_.hz.v);
    t.victim_gap.sample(at, static_cast<std::int64_t>(billed) -
                                static_cast<std::int64_t>(u.true_cycles.total().v));
  }
}

void Kernel::push_kwork(Process& p, Cycles cost, WorkKind kind, KernelAction action,
                        Pid beneficiary) {
  p.kwork.push_back(KernelWork{cost, static_cast<std::uint8_t>(kind),
                               static_cast<int>(action), beneficiary});
}

CpuMode Kernel::current_mode(const Process& p) const {
  if (!p.kwork.empty()) return CpuMode::kKernel;
  if (p.user.active) return CpuMode::kUser;
  // Between steps: the kernel is fetching work on the process's behalf.
  return CpuMode::kKernel;
}

// ---------------------------------------------------------------------------
// Main loop.
// ---------------------------------------------------------------------------

std::optional<Cycles> Kernel::next_external_event() const {
  std::optional<Cycles> next = timer_.next_fire();
  const auto consider = [&next](std::optional<Cycles> t) {
    if (t && (!next || *t < *next)) next = t;
  };
  consider(nic_.next_arrival());
  consider(disk_.next_completion());
  if (!sleepers_.empty()) consider(sleepers_.top().first);
  return next;
}

Cycles Kernel::run(Cycles limit) {
  return config_.event_driven ? run_events(limit) : run_slices(limit);
}

Cycles Kernel::run_slices(Cycles limit) {
  while (now_ < limit) {
    // Deliver any events that are already due (late interrupts fire first).
    while (auto evt = next_external_event()) {
      if (*evt > now_) break;
      dispatch_external();
      if (current_ != nullptr && !current_->runnable()) stop_current_and_switch();
    }

    if (current_ == nullptr || need_resched_) {
      if (current_ != nullptr) {
        preempt_current();
      }
      Process* next = scheduler_->pick_next(now_);
      if (next != nullptr) context_switch_in(*next);
    }

    if (current_ == nullptr) {
      // Idle: fast-forward to the next event, if any work can still arrive.
      if (all_work_done()) break;
      const auto evt = next_external_event();
      MTR_ENSURE_MSG(evt.has_value(), "sleepers exist but no wake event");
      if (*evt >= limit) {
        charge_idle(limit - now_);
        break;
      }
      if (*evt > now_) charge_idle(*evt - now_);
      dispatch_external();
      continue;
    }

    // Run the current process up to the next external event (or the limit).
    // A context-switch charge above may have advanced past a due event; the
    // clamped boundary makes run_current a no-op and the event dispatches.
    Cycles boundary = limit;
    if (const auto evt = next_external_event()) boundary = std::min(boundary, *evt);
    boundary = std::max(boundary, now_);

    const RunStop stop = run_current(boundary);
    switch (stop) {
      case RunStop::kBoundary: {
        // An interrupt is due (or the limit was reached).
        const auto evt = next_external_event();
        if (evt && *evt <= now_) dispatch_external();
        break;
      }
      case RunStop::kBlocked:
        stop_current_and_switch();
        break;
      case RunStop::kResched:
        // Loop top performs the preemption.
        break;
    }
    if (current_ != nullptr && !current_->runnable()) stop_current_and_switch();
  }
  // The caller may read meters/auditors now: drain the batched charges.
  flush_charges();
  return now_;
}

// ---------------------------------------------------------------------------
// Event-driven loop.
//
// Same phase structure as run_slices, but the next external event comes
// from the calendar queue instead of a scan over every device, and three
// shortcuts skip the loop's per-event round trip. idle_leap and
// running_leap collapse tick runs the engine can prove observation-free
// into O(1) updates; flood_leap replays a run of NIC arrivals charge for
// charge in one tight loop, popping and pushing the NIC entry once. Every
// observable — jiffy counters, ground-truth cycles, the hook charge
// stream, RNG draws, scheduler state, run() return points — is
// bit-identical to the slice loop; the differential suite in kernel_test
// enforces this across the attack roster.
// ---------------------------------------------------------------------------

Cycles Kernel::run_events(Cycles limit) {
  while (now_ < limit) {
    // Deliver any events that are already due (late interrupts fire first).
    while (const Event* e = events_.peek()) {
      if (e->at > now_) break;
      dispatch_event(events_.pop());
      if (current_ != nullptr && !current_->runnable()) stop_current_and_switch();
    }

    if (current_ == nullptr || need_resched_) {
      if (current_ != nullptr) {
        preempt_current();
      }
      Process* next = scheduler_->pick_next(now_);
      if (next != nullptr) context_switch_in(*next);
    }

    if (current_ == nullptr) {
      if (all_work_done()) break;
      if (!idle_leap(limit)) break;
      continue;
    }

    // Pure-compute stretch spanning several ticks? Coalesce it first.
    running_leap(limit);
    // A run of NIC arrivals inside one compute step? Replay it in place.
    if (flood_leap(limit)) continue;

    // Run the current process up to the next pending event (or the limit).
    // A stale queue entry only shortens the boundary: the resulting split
    // user charge re-coalesces in the batch, and the entry is validated
    // away when it pops.
    Cycles boundary = limit;
    if (const Event* e = events_.peek()) boundary = std::min(boundary, e->at);
    boundary = std::max(boundary, now_);

    const RunStop stop = run_current(boundary);
    switch (stop) {
      case RunStop::kBoundary: {
        const Event* e = events_.peek();
        if (e != nullptr && e->at <= now_) dispatch_event(events_.pop());
        break;
      }
      case RunStop::kBlocked:
        stop_current_and_switch();
        break;
      case RunStop::kResched:
        // Loop top performs the preemption.
        break;
    }
    if (current_ != nullptr && !current_->runnable()) stop_current_and_switch();
  }
  flush_charges();
  return now_;
}

void Kernel::count_dispatch() {
  if (stats_ == nullptr) return;
  ++stats_->events_popped;
  const std::uint64_t depth = events_.size() + 1;  // including the popped entry
  if (depth > stats_->max_event_queue_depth) stats_->max_event_queue_depth = depth;
}

void Kernel::dispatch_event(const Event& e) {
  count_dispatch();
  switch (e.kind) {
    case EventKind::kTimerTick:
      MTR_ENSURE_MSG(e.at == timer_.next_fire(), "timer event off the fire grid");
      handle_timer_tick();
      events_.push(timer_.next_fire(), EventKind::kTimerTick);
      return;
    case EventKind::kDiskCompletion:
      // Disk entries are never stale: one entry per submit, completions are
      // FIFO with monotone times, and requests are never cancelled.
      MTR_ENSURE_MSG(disk_.next_completion() && *disk_.next_completion() == e.at,
                     "disk event does not match the device queue");
      handle_disk_completion();
      return;
    case EventKind::kNicArrival: {
      // Stale after stop_flood (or a flood restart): validate by time.
      const auto due = nic_.next_arrival();
      if (!due || *due != e.at) {
        if (stats_ != nullptr) ++stats_->stale_events;
        if (tracer_ != nullptr) tracer_->instant(now_, "stale-nic", kIdlePid, Tgid{0});
        return;
      }
      handle_nic_arrival();
      if (const auto next = nic_.next_arrival())
        events_.push(*next, EventKind::kNicArrival);
      return;
    }
    case EventKind::kSleepExpiry:
      handle_sleep_expiry(e.at, e.pid);
      return;
  }
}

bool Kernel::idle_leap(Cycles limit) {
  MTR_ENSURE_MSG(!events_.empty(), "sleepers exist but no wake event");
  const Event* head = events_.peek();
  if (head->at >= limit) {
    charge_idle(limit - now_);
    return false;
  }
  if (head->kind != EventKind::kTimerTick) {
    // Single leap: the handler itself charges the idle gap up to its due.
    dispatch_event(events_.pop());
    return true;
  }

  const Event tick = events_.pop();
  if (stats_ != nullptr) ++stats_->events_popped;
  MTR_ENSURE_MSG(tick.at == timer_.next_fire(), "timer event off the fire grid");
  const Cycles period = timer_.period();
  const Cycles irq = timer_irq_cost();

  // While the CPU idles nothing can enqueue new events ahead of the ones
  // already queued (no process runs to submit I/O, draw arrivals, or
  // sleep), so every tick strictly before the next queued event — or the
  // limit — plays out identically: idle gap, idle tick, timer IRQ billed
  // to nobody. Process the whole run in O(1) instead of O(ticks). Ticks
  // exactly at the horizon re-enter through the queue, where the kind rank
  // preserves the timer-first tie order.
  std::uint64_t count = 1;
  if (!config_.unbatched_accounting && irq < period && tick.at > now_) {
    Cycles horizon = limit;
    if (const Event* second = events_.peek()) horizon = std::min(horizon, second->at);
    if (horizon > tick.at) {
      const std::uint64_t span = horizon.v - tick.at.v;
      count = (span + period.v - 1) / period.v;
    }
  }

  if (count <= 1) {
    handle_timer_tick();
    events_.push(timer_.next_fire(), EventKind::kTimerTick);
    return true;
  }

  // Bulk form of `count` handle_timer_tick() calls from the idle context:
  // one coalesced idle charge, one coalesced IRQ charge, one tick billing.
  // Totals, final `now`, and tick counters are bit-identical to the
  // per-tick replay (the per-tick stream interleaved gap/IRQ; the sums and
  // keys are the same).
  const Cycles last_due = tick.at + Cycles{period.v * (count - 1)};
  charge_idle(Cycles{(tick.at.v - now_.v) + (count - 1) * (period.v - irq.v)});
  timer_.acknowledge_run(last_due, count);
  bill_ticks(tick.at, count, nullptr, CpuMode::kKernel);
  if (tracer_ != nullptr) tracer_->instant(last_due, "idle-leap", kIdlePid, Tgid{0});
  if (stats_ != nullptr) {
    ++stats_->idle_leaps;
    stats_->ticks_coalesced += count;
  }
  charge(nullptr, WorkKind::kTimerIrq, Cycles{irq.v * count}, Pid{});
  events_.push(timer_.next_fire(), EventKind::kTimerTick);
  // One sample stands in for the run of coalesced idle ticks (the leap is
  // precisely the engine proving nothing observable happened in between).
  if (telemetry_ != nullptr) sample_telemetry();
  return true;
}

void Kernel::running_leap(Cycles limit) {
  if (config_.unbatched_accounting || need_resched_) return;
  Process& p = *current_;
  if (!p.kwork.empty() || !p.pending_signals.empty() || !p.user.active) return;
  UserWork& u = p.user;
  // Memory touches and armed breakpoints are mid-compute engine events the
  // leap would skip: bail to the exact micro-sliced path.
  if (u.step.mem.touches_memory() || u.until_hot.v != UINT64_MAX) return;

  const Event* head = events_.peek();
  if (head == nullptr || head->kind != EventKind::kTimerTick || head->at <= now_)
    return;
  const Cycles first_due = head->at;
  const Cycles period = timer_.period();
  const Cycles irq = timer_irq_cost();
  if (irq >= period) return;  // ticks run late: no coalescible user gap
  const std::uint64_t gap = period.v - irq.v;  // user cycles per later tick

  // Ticks strictly before the next non-tick event or the limit...
  Cycles horizon = limit;
  if (const Event* second = events_.peek_second())
    horizon = std::min(horizon, second->at);
  if (horizon <= first_due) return;
  std::uint64_t count = (horizon.v - first_due.v + period.v - 1) / period.v;

  // ...bounded by the compute the step still owns. Strictly: a step ending
  // exactly on a tick flips the charged mode to kernel ("between steps"),
  // so the leap requires compute left over after the last tick's gap.
  const std::uint64_t first_gap = first_due.v - now_.v;
  if (u.remaining.v <= first_gap) return;
  count = std::min(count, (u.remaining.v - first_gap - 1) / gap + 1);

  // ...and by the scheduler's guarantee that none of the ticks preempts.
  count = std::min(count, scheduler_->ticks_until_preemption(p, period));
  if (count < 2) return;  // nothing to coalesce over the normal path

  // Replay the exact per-tick charge sequence — CFS vruntime rounds once
  // per on_ran, so the user-gap and IRQ charges must stay per-tick — while
  // bulking the tick billing, the timer acknowledgements and the
  // scheduler's quantum updates.
  events_.pop();
  if (stats_ != nullptr) ++stats_->events_popped;
  for (std::uint64_t k = 0; k < count; ++k) {
    const Cycles due = first_due + Cycles{period.v * k};
    charge(&p, WorkKind::kUserCompute, due - now_, p.pid);
    charge(&p, WorkKind::kTimerIrq, irq, p.pid);
  }
  u.remaining -= Cycles{first_gap + (count - 1) * gap};
  timer_.acknowledge_run(first_due + Cycles{period.v * (count - 1)}, count);
  bill_ticks(first_due, count, &p, CpuMode::kUser);
  if (tracer_ != nullptr) tracer_->instant(now_, "running-leap", p.pid, p.tgid);
  if (stats_ != nullptr) {
    ++stats_->running_leaps;
    stats_->ticks_coalesced += count;
  }
  scheduler_->on_ticks(p, count);
  events_.push(timer_.next_fire(), EventKind::kTimerTick);
  // As in idle_leap: one sample for the whole coalesced stretch.
  if (telemetry_ != nullptr) sample_telemetry();
}

bool Kernel::flood_leap(Cycles limit) {
  // The head test comes first: without a flood it is the one that fails.
  const Event* head = events_.peek();
  if (head == nullptr || head->kind != EventKind::kNicArrival) return false;
  if (nic_.next_arrival() != head->at) return false;  // a stale entry
  if (current_ == nullptr || need_resched_) return false;
  Process& p = *current_;
  if (!p.kwork.empty() || !p.pending_signals.empty() || !p.user.active) return false;
  const Cycles first = head->at;  // `head` dies at the pop below

  // Nothing the leap does queues an event, so the entries behind the
  // arrival stay put: every arrival strictly before the next of them (and
  // the limit) is the queue head when the main loop would reach it.
  Cycles horizon = limit;
  if (const Event* second = events_.peek_second())
    horizon = std::min(horizon, second->at);
  // The compute the step can run as one plain slice: strictly before its
  // end (which fetches the next step), its next page touch and its next
  // breakpoint hit.
  const UserWork& u = p.user;
  const auto room = [&u] {
    Cycles r = std::min(u.remaining, u.until_hot);
    if (u.step.mem.touches_memory()) r = std::min(r, u.until_next_touch);
    return r;
  };
  if (first <= now_ || first >= horizon || first - now_ >= room()) return false;

  // What the main loop does per arrival: run the user slice up to it,
  // dispatch it (its handler acknowledges, draws the next gap and charges
  // the interrupted process) and go round again. A late arrival (the last
  // handler outlasted the gap) skips the slice. The main loop drains due
  // events without checking the limit, so a late arrival is taken only if
  // its handler ends before the limit: otherwise run() would return before
  // the drain the main loop finishes.
  events_.pop();
  const Cycles irq = nic_irq_cost();
  Cycles due = first;
  do {
    if (due > now_) run_user_compute(due);
    count_dispatch();
    handle_nic_arrival();
    due = *nic_.next_arrival();
  } while (now_ < limit && due < horizon &&
           (due > now_ ? due - now_ < room() : now_ + irq < limit));
  events_.push(due, EventKind::kNicArrival);
  return true;
}

// ---------------------------------------------------------------------------
// Current-process execution.
// ---------------------------------------------------------------------------

RunStop Kernel::run_current(Cycles boundary) {
  MTR_ENSURE(current_ != nullptr);
  while (now_ < boundary) {
    Process& p = *current_;

    if (!p.kwork.empty()) {
      if (!run_kernel_work(boundary)) return RunStop::kBoundary;
      if (!p.runnable()) return RunStop::kBlocked;
      if (need_resched_) return RunStop::kResched;
      continue;
    }

    if (!p.pending_signals.empty()) {
      if (process_one_signal(p)) continue;
    }

    if (!p.user.active) {
      if (!fetch_next_step(p)) {
        // Process exited synchronously while fetching (exit step pushes
        // kernel work, so this only happens on runnable-state change).
        if (!p.runnable()) return RunStop::kBlocked;
        continue;
      }
      continue;
    }

    run_user_compute(boundary);
    if (!p.runnable()) return RunStop::kBlocked;
    if (need_resched_) return RunStop::kResched;
  }
  return RunStop::kBoundary;
}

bool Kernel::run_kernel_work(Cycles boundary) {
  Process& p = *current_;
  MTR_ENSURE(!p.kwork.empty());
  KernelWork& w = p.kwork.front();
  const Cycles budget = boundary - now_;
  if (budget.v == 0) return false;

  const Cycles slice = std::min(w.remaining, budget);
  charge(&p, static_cast<WorkKind>(w.kind), slice,
         w.beneficiary.valid() ? w.beneficiary : p.pid);
  w.remaining -= slice;
  if (w.remaining.v > 0) return false;  // boundary reached mid-work

  const auto action = static_cast<KernelAction>(w.action);
  p.kwork.erase(p.kwork.begin());
  apply_action(action);
  return true;
}

bool Kernel::fetch_next_step(Process& p) {
  KernelProcessContext ctx(*this, p);
  Step step = p.program->next(ctx);

  struct Visitor {
    Kernel& k;
    Process& p;

    void operator()(ComputeStep& s) {
      k.flush_charges();
      if (k.tracer_ != nullptr) k.tracer_->instant(k.now_, "compute", p.pid, p.tgid);
      k.hooks_.each<HookEvent::kStepBegin>([&](AccountingHook& h) {
        h.on_step_begin(k.now_, p.pid, p.tgid, "compute", s.tag);
      });
      k.begin_user_step(p, std::move(s));
    }
    void operator()(SyscallStep& s) {
      k.flush_charges();
      if (k.tracer_ != nullptr)
        k.tracer_->instant(k.now_, syscall_name(s.req), p.pid, p.tgid);
      k.hooks_.each<HookEvent::kStepBegin>([&](AccountingHook& h) {
        h.on_step_begin(k.now_, p.pid, p.tgid, syscall_name(s.req), "");
      });
      p.pending_syscall = std::move(s.req);
      k.push_kwork(p, k.config_.costs.syscall_entry, WorkKind::kSyscallEntry,
                   KernelAction::kNone);
      Cycles body = k.config_.costs.generic_syscall;
      const SyscallRequest& req = *p.pending_syscall;
      if (std::holds_alternative<SysFork>(req) || std::holds_alternative<SysClone>(req)) {
        body = k.config_.costs.fork_base;
      } else if (std::holds_alternative<SysExecve>(req)) {
        body = k.config_.costs.execve_base;
      } else if (std::holds_alternative<SysWait>(req)) {
        body = k.config_.costs.wait_base;
      } else if (std::holds_alternative<SysPtrace>(req)) {
        body = k.config_.costs.ptrace_base;
      } else if (std::holds_alternative<SysKill>(req)) {
        body = k.config_.costs.signal_generate;
      } else if (const auto* gen = std::get_if<SysGeneric>(&req)) {
        body = gen->body_cost;
      }
      k.push_kwork(p, body, WorkKind::kSyscallBody, KernelAction::kApplySyscall);
    }
    void operator()(ExitStep& s) {
      k.flush_charges();
      if (k.tracer_ != nullptr) k.tracer_->instant(k.now_, "exit", p.pid, p.tgid);
      k.hooks_.each<HookEvent::kStepBegin>([&](AccountingHook& h) {
        h.on_step_begin(k.now_, p.pid, p.tgid, "exit", "");
      });
      p.exit_code = s.code;
      k.push_kwork(p, k.config_.costs.exit_base, WorkKind::kSyscallBody,
                   KernelAction::kFinishExit);
    }
  };
  std::visit(Visitor{*this, p}, step);
  return true;
}

// ---------------------------------------------------------------------------
// User compute with memory touches and hot (breakpoint) accesses.
// ---------------------------------------------------------------------------

void Kernel::begin_user_step(Process& p, ComputeStep step) {
  UserWork& u = p.user;
  u.step = std::move(step);
  u.remaining = u.step.cycles;
  u.until_next_touch = u.step.mem.touches_memory() ? u.step.mem.touch_period : Cycles{0};
  u.active = u.remaining.v > 0;
  refresh_hot_schedule(p);
}

void Kernel::refresh_hot_schedule(Process& p) {
  UserWork& u = p.user;
  // Hot accesses only cost engine events while a matching debug register
  // is armed; otherwise they are ordinary loads inside the compute slab.
  const auto& hot = u.step.mem.hot;
  u.until_hot = hot && p.dregs.any_armed() && p.dregs.match(hot->addr)
                    ? hot->period
                    : Cycles{UINT64_MAX};
}

void Kernel::run_user_compute(Cycles boundary) {
  Process& p = *current_;
  UserWork& u = p.user;
  MTR_ENSURE(u.active);

  while (now_ < boundary && u.active && p.kwork.empty() && !need_resched_) {
    // The next micro-event: step end, page touch, hot access, or boundary.
    Cycles slice = std::min(u.remaining, boundary - now_);
    bool is_touch = false;
    bool is_hot = false;
    if (u.step.mem.touches_memory() && u.until_next_touch < slice) {
      slice = u.until_next_touch;
      is_touch = true;
    }
    // Hot accesses win ties with a touch so breakpoints fire deterministically.
    if (u.until_hot < slice || (u.until_hot == slice && is_touch)) {
      slice = u.until_hot;
      is_touch = false;
      is_hot = true;
    }

    if (slice.v > 0) {
      charge(&p, WorkKind::kUserCompute, slice, p.pid);
      u.remaining -= slice;
      if (u.step.mem.touches_memory()) u.until_next_touch -= slice;
      if (u.until_hot.v != UINT64_MAX) u.until_hot -= slice;
    }

    if (u.remaining.v == 0) {
      u.active = false;
      return;
    }
    if (is_hot && u.until_hot.v == 0) {
      u.until_hot = u.step.mem.hot->period;
      hot_access(p);
      return;  // exception processing takes over
    }
    if (is_touch && u.until_next_touch.v == 0) {
      u.until_next_touch = u.step.mem.touch_period;
      touch_memory(p);
      if (!p.kwork.empty()) return;  // fault handling takes over
    }
    if (slice.v == 0 && !is_touch && !is_hot) {
      return;  // boundary exactly at now_
    }
  }
}

void Kernel::touch_memory(Process& p) {
  const MemoryProfile& mem = p.user.step.mem;
  MTR_ENSURE(mem.page_count > 0);
  const PageId page{mem.first_page.v + p.mem_cursor % mem.page_count};
  ++p.mem_cursor;

  const mm::TouchResult r = mm_.touch(p.tgid, page);
  // Direct reclaim: the allocating process pays the LRU scan for the frames
  // the reclaimer had to free on its behalf.
  const Cycles reclaim_cost =
      config_.costs.direct_reclaim_per_page * std::uint64_t{r.evictions};
  switch (r.fault) {
    case mm::FaultKind::kNone:
      return;
    case mm::FaultKind::kMinor:
      ++p.usage.minor_faults;
      push_kwork(p, config_.costs.page_fault_minor + reclaim_cost,
                 WorkKind::kPageFaultMinor, KernelAction::kNone);
      return;
    case mm::FaultKind::kMajor:
      ++p.usage.major_faults;
      push_kwork(p, config_.costs.page_fault_major + reclaim_cost,
                 WorkKind::kPageFaultMajor, KernelAction::kBlockOnDisk);
      return;
  }
}

void Kernel::hot_access(Process& p) {
  ++p.usage.debug_exceptions;
  // #DB dispatch runs in the tracee's kernel context, then a SIGTRAP trace
  // stop is delivered — precisely the thrashing attack's cost vehicle. The
  // true beneficiary of all of it is the tracer who armed the breakpoint.
  push_kwork(p, config_.costs.debug_exception, WorkKind::kDebugException,
             KernelAction::kNone, p.tracer);
  p.pending_signals.push_back(PendingSignal{Signal::kTrap, p.tracer});
}

// ---------------------------------------------------------------------------
// Signals.
// ---------------------------------------------------------------------------

bool Kernel::process_one_signal(Process& p) {
  MTR_ENSURE(!p.pending_signals.empty());
  const PendingSignal pending = p.pending_signals.front();
  p.pending_signals.erase(p.pending_signals.begin());
  ++p.usage.signals_received;
  const Signal sig = pending.sig;
  // Delivery work serves whoever raised the signal (process-aware meters
  // re-attribute on this).
  const Pid beneficiary = pending.sender;

  switch (sig) {
    case Signal::kChld:
    case Signal::kCont:
    case Signal::kUsr1:
      return false;  // default action: ignore (no kernel work)
    case Signal::kStop:
      push_kwork(p, config_.costs.signal_deliver, WorkKind::kSignalDeliver,
                 KernelAction::kStopSelf, beneficiary);
      return true;
    case Signal::kTrap:
      if (p.traced()) {
        push_kwork(p, config_.costs.signal_deliver, WorkKind::kSignalDeliver,
                   KernelAction::kStopSelf, beneficiary);
      } else {
        p.exit_code = 128 + 5;
        push_kwork(p, config_.costs.signal_deliver, WorkKind::kSignalDeliver,
                   KernelAction::kFinishExit, beneficiary);
      }
      return true;
    case Signal::kKill:
      p.exit_code = 128 + 9;
      push_kwork(p, config_.costs.signal_deliver, WorkKind::kSignalDeliver,
                 KernelAction::kFinishExit, beneficiary);
      return true;
    case Signal::kSegv:
      p.exit_code = 128 + 11;
      push_kwork(p, config_.costs.signal_deliver, WorkKind::kSignalDeliver,
                 KernelAction::kFinishExit, beneficiary);
      return true;
  }
  return false;
}

void Kernel::send_signal(Process& target, Signal sig) {
  if (!target.alive()) return;
  charge(current_, WorkKind::kSignalGenerate, config_.costs.signal_generate,
         current_ != nullptr ? current_->pid : Pid{});
  target.pending_signals.push_back(
      PendingSignal{sig, current_ != nullptr ? current_->pid : Pid{}});

  if (sig == Signal::kCont && target.state == ProcState::kStopped) {
    target.trace_stopped = false;
    wake_process(target);
    return;
  }
  if (target.state == ProcState::kSleeping &&
      target.sleep_reason != SleepReason::kDiskIo) {
    wake_process(target);  // interruptible sleep broken by any signal
    return;
  }
  if ((sig == Signal::kKill) && target.state == ProcState::kStopped) {
    wake_process(target);  // SIGKILL cannot be blocked by a stop
  }
}

// ---------------------------------------------------------------------------
// Wakeups, switches, notifications.
// ---------------------------------------------------------------------------

void Kernel::wake_process(Process& p) {
  MTR_ENSURE(p.alive());
  if (p.runnable()) return;
  // Waking from a blocking sleep earns the interactivity credit the O(1)
  // policy turns into a dynamic-priority bonus.
  if (p.state == ProcState::kSleeping) {
    p.sched.wake_boost = true;
    p.sched.cpu_hog = false;  // it slept: no longer a hog
  }
  p.state = ProcState::kReady;
  p.sleep_reason = SleepReason::kNone;
  scheduler_->enqueue(p, now_);
  if (current_ != nullptr && scheduler_->should_preempt(*current_, p))
    need_resched_ = true;
}

void Kernel::preempt_current() {
  MTR_ENSURE(current_ != nullptr);
  Process& out = *current_;
  need_resched_ = false;
  charge(&out, WorkKind::kContextSwitch, config_.costs.context_switch, out.pid);
  if (out.runnable()) {
    out.state = ProcState::kReady;
    ++out.usage.involuntary_switches;
    scheduler_->enqueue(out, now_, /*preempted=*/true);
  }
  flush_charges();
  if (tracer_ != nullptr) tracer_->instant(now_, "preempt", out.pid, out.tgid);
  if (stats_ != nullptr) ++stats_->context_switches;
  current_ = nullptr;
}

void Kernel::stop_current_and_switch() {
  MTR_ENSURE(current_ != nullptr);
  Process& out = *current_;
  charge(&out, WorkKind::kContextSwitch, config_.costs.context_switch, out.pid);
  ++out.usage.voluntary_switches;
  flush_charges();
  if (tracer_ != nullptr) tracer_->instant(now_, "switch-out", out.pid, out.tgid);
  if (stats_ != nullptr) ++stats_->context_switches;
  current_ = nullptr;
}

void Kernel::context_switch_in(Process& next) {
  MTR_ENSURE(current_ == nullptr);
  MTR_ENSURE_MSG(next.state == ProcState::kReady, "picked process not ready");
  next.state = ProcState::kRunning;
  current_ = &next;
  // Re-derive the hot-access schedule: debug registers may have been armed
  // while the process was stopped.
  if (next.user.active) refresh_hot_schedule(next);
  flush_charges();
  if (tracer_ != nullptr) tracer_->instant(now_, "switch-in", next.pid, next.tgid);
}

void Kernel::notify_stop(Process& stopped) {
  const Pid target_pid = stopped.traced() ? stopped.tracer : stopped.parent;
  if (!target_pid.valid() || !has_process(target_pid)) return;
  Process& target = process(target_pid);
  if (!target.alive()) return;
  target.stop_notifications.push_back(stopped.pid);
  if (target.state == ProcState::kSleeping &&
      target.sleep_reason == SleepReason::kWaitChild) {
    wake_process(target);
  }
}

void Kernel::notify_exit(Process& dead) {
  const Pid target_pid = dead.traced() ? dead.tracer : dead.parent;
  if (!target_pid.valid() || !has_process(target_pid) ||
      !process(target_pid).alive()) {
    dead.state = ProcState::kReaped;  // no one to wait: auto-reap
    return;
  }
  Process& target = process(target_pid);
  target.zombies_to_reap.push_back(dead.pid);
  send_signal(target, Signal::kChld);
  if (target.state == ProcState::kSleeping &&
      target.sleep_reason == SleepReason::kWaitChild) {
    wake_process(target);
  }
}

void Kernel::reap(Process& parent, Process& child) {
  child.state = ProcState::kReaped;
  const auto it = std::find(parent.children.begin(), parent.children.end(), child.pid);
  if (it != parent.children.end()) parent.children.erase(it);

  // A tracer reaping a tracee releases the trace link...
  if (child.traced() && has_process(child.tracer)) {
    Process& tracer = process(child.tracer);
    const auto tit = std::find(tracer.tracees.begin(), tracer.tracees.end(), child.pid);
    if (tit != tracer.tracees.end()) tracer.tracees.erase(tit);
  }
  // ...and the real parent, if it is someone else, finally gets its own
  // wait() satisfied (the tracer held the zombie until now).
  if (child.traced() && child.parent.valid() && child.parent != parent.pid &&
      has_process(child.parent)) {
    Process& real_parent = process(child.parent);
    if (real_parent.alive()) {
      real_parent.zombies_to_reap.push_back(child.pid);
      if (real_parent.state == ProcState::kSleeping &&
          real_parent.sleep_reason == SleepReason::kWaitChild) {
        wake_process(real_parent);
      }
    }
  }
  child.tracer = Pid{};
}

// ---------------------------------------------------------------------------
// External events.
// ---------------------------------------------------------------------------

void Kernel::dispatch_external() {
  const auto evt = next_external_event();
  MTR_ENSURE(evt.has_value());

  // Priority at equal timestamps: timer, disk, nic, sleepers.
  if (timer_.next_fire() == *evt) {
    handle_timer_tick();
    return;
  }
  if (disk_.next_completion() && *disk_.next_completion() == *evt) {
    handle_disk_completion();
    return;
  }
  if (nic_.next_arrival() && *nic_.next_arrival() == *evt) {
    handle_nic_arrival();
    return;
  }
  MTR_ENSURE(!sleepers_.empty());
  const auto [due, pid] = sleepers_.top();
  sleepers_.pop();
  handle_sleep_expiry(due, pid);
}

void Kernel::handle_timer_tick() {
  const Cycles due = timer_.next_fire();
  if (now_ < due) {
    // The CPU was idle up to the tick (running paths dispatch on time).
    charge_idle(due - now_);
  }
  timer_.acknowledge(now_ < due ? due : now_);

  // Jiffy accounting — the commodity scheme the paper attacks. One whole
  // tick lands on whichever context is current, by its mode at the
  // interrupt, regardless of how little of the tick it actually ran.
  // A late dispatch means the tick was due while an uninterruptible kernel
  // window ran (interrupt handler, context switch): kernel mode.
  const CpuMode mode = current_ == nullptr || now_ > due ? CpuMode::kKernel
                                                         : current_mode(*current_);
  bill_ticks(now_, 1, current_, mode);

  // The tick handler itself costs CPU, billed to the interrupted context.
  charge(current_, WorkKind::kTimerIrq, timer_irq_cost(),
         current_ != nullptr ? current_->pid : Pid{});

  // Scheduler tick: quantum/fairness bookkeeping.
  if (current_ != nullptr && scheduler_->on_tick(*current_, now_)) {
    need_resched_ = true;
  }

  if (telemetry_ != nullptr) sample_telemetry();
}

void Kernel::handle_nic_arrival() {
  const Cycles due = *nic_.next_arrival();
  if (now_ < due) charge_idle(due - now_);
  nic_.acknowledge(due, draw_rng());
  // Junk packet: the handler runs in whatever context was interrupted and
  // benefits nobody — the commodity policy still bills the current process.
  charge(current_, WorkKind::kDeviceIrq, nic_irq_cost(), Pid{});
}

void Kernel::handle_disk_completion() {
  const Cycles due = *disk_.next_completion();
  if (now_ < due) charge_idle(due - now_);
  const hw::DiskCompletion done = disk_.acknowledge(due);
  // Completion handler billed to the interrupted context; the true
  // beneficiary is the process that was waiting for the I/O.
  charge(current_, WorkKind::kDeviceIrq,
         config_.costs.interrupt_entry + config_.costs.disk_handler +
             config_.costs.interrupt_exit,
         done.waiter);
  if (has_process(done.waiter)) {
    Process& w = process(done.waiter);
    if (w.alive() && w.state == ProcState::kSleeping &&
        w.sleep_reason == SleepReason::kDiskIo) {
      wake_process(w);
    }
  }
}

void Kernel::handle_sleep_expiry(Cycles due, Pid pid) {
  // The idle gap up to the entry's due time is charged *before* finding
  // out it is stale (a sleeper woken early by a signal leaves its entry
  // behind).
  if (now_ < due) charge_idle(due - now_);
  if (!has_process(pid)) return;
  Process& p = process(pid);
  if (p.alive() && p.state == ProcState::kSleeping &&
      p.sleep_reason == SleepReason::kNanosleep && p.wake_at == due) {
    // Expiry work rides the timer infrastructure, billed to the current
    // context like any interrupt.
    charge(current_, WorkKind::kTimerIrq, config_.costs.interrupt_entry,
           current_ != nullptr ? current_->pid : Pid{});
    wake_process(p);
  } else {
    if (stats_ != nullptr) ++stats_->stale_events;
    if (tracer_ != nullptr) tracer_->instant(now_, "stale-sleep", p.pid, p.tgid);
  }
}

// ---------------------------------------------------------------------------
// Future-event registration.
// ---------------------------------------------------------------------------

void Kernel::schedule_sleep_expiry(const Process& p) {
  MTR_ENSURE(p.sleep_reason == SleepReason::kNanosleep);
  if (config_.event_driven) {
    events_.push(p.wake_at, EventKind::kSleepExpiry, p.pid);
  } else {
    sleepers_.push({p.wake_at, p.pid});
  }
}

void Kernel::submit_disk_request(Pid waiter) {
  const Cycles done = disk_.submit(now_, waiter);
  if (config_.event_driven) events_.push(done, EventKind::kDiskCompletion);
}

void Kernel::start_nic_flood(double packets_per_second) {
  if (tracer_ != nullptr)
    tracer_->instant(now_, "nic-flood-start", kIdlePid, Tgid{0});
  nic_.start_flood(now_, packets_per_second, draw_rng());
  if (config_.event_driven) {
    if (const auto t = nic_.next_arrival())
      events_.push(*t, EventKind::kNicArrival);
  }
}

void Kernel::stop_nic_flood() {
  if (tracer_ != nullptr)
    tracer_->instant(now_, "nic-flood-stop", kIdlePid, Tgid{0});
  // The queued arrival entry goes stale and is validated away on pop.
  nic_.stop_flood();
}

}  // namespace mtr::kernel
