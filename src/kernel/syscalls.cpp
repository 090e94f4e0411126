// System-call semantics and kernel actions.
//
// Bodies run as interruptible kernel work charged to the calling process;
// when the work drains the engine applies the semantic action implemented
// here. Blocking calls park the process and are resumed by wakeups.
#include "kernel/syscalls.hpp"

#include <algorithm>

#include "common/ensure.hpp"
#include "kernel/kernel.hpp"
#include "trace/tracer.hpp"

namespace mtr::kernel {

const char* syscall_name(const SyscallRequest& req) {
  struct Namer {
    const char* operator()(const SysFork&) const { return "fork"; }
    const char* operator()(const SysClone&) const { return "clone"; }
    const char* operator()(const SysExecve&) const { return "execve"; }
    const char* operator()(const SysWait&) const { return "wait"; }
    const char* operator()(const SysKill&) const { return "kill"; }
    const char* operator()(const SysPtrace&) const { return "ptrace"; }
    const char* operator()(const SysNanosleep&) const { return "nanosleep"; }
    const char* operator()(const SysMmap&) const { return "mmap"; }
    const char* operator()(const SysDiskIo&) const { return "disk_io"; }
    const char* operator()(const SysGetRusage&) const { return "getrusage"; }
    const char* operator()(const SysMapCode&) const { return "map_code"; }
    const char* operator()(const SysGeneric&) const { return "generic"; }
  };
  return std::visit(Namer{}, req);
}

void Kernel::apply_action(KernelAction action) {
  MTR_ENSURE(current_ != nullptr);
  Process& p = *current_;
  switch (action) {
    case KernelAction::kNone:
      return;
    case KernelAction::kApplySyscall:
      apply_syscall(p);
      return;
    case KernelAction::kReturnToUser:
      return;
    case KernelAction::kFinishExit:
      do_exit(p);
      return;
    case KernelAction::kStopSelf: {
      p.state = ProcState::kStopped;
      p.trace_stopped = p.traced();
      notify_stop(p);
      return;
    }
    case KernelAction::kBlockOnDisk: {
      submit_disk_request(p.pid);
      p.state = ProcState::kSleeping;
      p.sleep_reason = SleepReason::kDiskIo;
      return;
    }
  }
}

void Kernel::apply_syscall(Process& p) {
  MTR_ENSURE_MSG(p.pending_syscall.has_value(), "no syscall to apply");
  // Take the request out first: blocking re-application (wait) re-reads it.
  const SyscallRequest& req = *p.pending_syscall;

  struct Visitor {
    Kernel& k;
    Process& p;

    void operator()(const SysFork& r) {
      k.do_fork(p, r);
      k.finish_syscall(p);
    }
    void operator()(const SysClone& r) {
      k.do_clone(p, r);
      k.finish_syscall(p);
    }
    void operator()(const SysExecve& r) {
      k.do_execve(p, r);
      // execve does not return to the old image: no epilogue work; the
      // next engine iteration fetches the new program's first step.
      p.pending_syscall.reset();
    }
    void operator()(const SysWait&) {
      k.do_wait(p);  // may block and re-apply; manages pending_syscall itself
    }
    void operator()(const SysKill& r) {
      k.do_kill(p, r);
      k.finish_syscall(p);
    }
    void operator()(const SysPtrace& r) {
      k.do_ptrace(p, r);
      k.finish_syscall(p);
    }
    void operator()(const SysNanosleep& r) {
      const Cycles duration = r.duration.v == 0 ? Cycles{1} : r.duration;
      p.wake_at = k.now_ + duration;
      if (k.config_.jiffy_resolution_timers) {
        // Timeout expiry rides the tick: round up to the next jiffy edge.
        const Cycles period = k.timer_.period();
        p.wake_at = Cycles{((p.wake_at.v + period.v - 1) / period.v) * period.v};
      }
      p.state = ProcState::kSleeping;
      p.sleep_reason = SleepReason::kNanosleep;
      k.schedule_sleep_expiry(p);
      p.last_syscall_result = 0;
      k.finish_syscall(p);
    }
    void operator()(const SysMmap& r) {
      // Lazily populated; pages fault in on first touch. Cost is the body.
      (void)r;
      p.last_syscall_result = 0;
      k.finish_syscall(p);
    }
    void operator()(const SysDiskIo&) {
      k.submit_disk_request(p.pid);
      p.state = ProcState::kSleeping;
      p.sleep_reason = SleepReason::kDiskIo;
      p.last_syscall_result = 0;
      k.finish_syscall(p);
    }
    void operator()(const SysGetRusage&) {
      const Usage u = k.group_usage(p.tgid);
      p.last_syscall_result = static_cast<std::int64_t>(u.ticks.total().v);
      k.finish_syscall(p);
    }
    void operator()(const SysMapCode& r) {
      k.flush_charges();
      k.hooks_.each<HookEvent::kCodeMapped>([&](AccountingHook& h) {
        h.on_code_mapped(k.now_, p.tgid, r.mapping);
      });
      p.last_syscall_result = 0;
      k.finish_syscall(p);
    }
    void operator()(const SysGeneric&) {
      p.last_syscall_result = 0;
      k.finish_syscall(p);
    }
  };
  std::visit(Visitor{*this, p}, req);
}

void Kernel::finish_syscall(Process& p) {
  p.pending_syscall.reset();
  push_kwork(p, config_.costs.syscall_exit, WorkKind::kSyscallExit,
             KernelAction::kReturnToUser);
}

// ---------------------------------------------------------------------------

void Kernel::do_fork(Process& parent, const SysFork& req) {
  MTR_ENSURE_MSG(req.child, "fork without a child program");
  Process& child = create_process(parent.name + "+child", req.child(), parent.pid,
                                  Tgid{}, parent.nice, parent.privileged);
  parent.children.push_back(child.pid);
  parent.last_syscall_result = child.pid.v;
  child.state = ProcState::kReady;
  scheduler_->enqueue(child, now_);
  if (scheduler_->should_preempt(parent, child)) need_resched_ = true;
}

void Kernel::do_clone(Process& parent, const SysClone& req) {
  MTR_ENSURE_MSG(req.thread, "clone without a thread program");
  // CLONE_VM | CLONE_THREAD: same group, shared address space.
  Process& child = create_process(parent.name + "+thr", req.thread(), parent.pid,
                                  parent.tgid, parent.nice, parent.privileged);
  process(Pid{parent.tgid.v}).threads.push_back(child.pid);
  parent.children.push_back(child.pid);
  parent.last_syscall_result = child.pid.v;
  child.state = ProcState::kReady;
  scheduler_->enqueue(child, now_);
  if (scheduler_->should_preempt(parent, child)) need_resched_ = true;
}

void Kernel::do_execve(Process& p, const SysExecve& req) {
  MTR_ENSURE_MSG(req.image, "execve without an image");
  // The old image is torn down; metering continues on the same PCB — time
  // spent before this point (e.g. shell-injected code) stays on the bill.
  p.program = req.image();
  p.name = req.path;
  p.user = UserWork{};
  p.last_syscall_result = 0;
}

void Kernel::do_wait(Process& p) {
  // 1. Exited children first.
  if (!p.zombies_to_reap.empty()) {
    const Pid pid = p.zombies_to_reap.front();
    p.zombies_to_reap.erase(p.zombies_to_reap.begin());
    if (has_process(pid)) {
      Process& child = process(pid);
      if (child.state == ProcState::kZombie) reap(p, child);
    }
    p.last_syscall_result = pid.v;
    finish_syscall(p);
    return;
  }
  // 2. Stop notifications (traced or WUNTRACED semantics).
  if (!p.stop_notifications.empty()) {
    const Pid pid = p.stop_notifications.front();
    p.stop_notifications.erase(p.stop_notifications.begin());
    p.last_syscall_result = pid.v;
    finish_syscall(p);
    return;
  }
  // 3. Anything to wait for?
  const bool has_waitable = !p.children.empty() || !p.tracees.empty();
  if (!has_waitable) {
    p.last_syscall_result = -1;  // ECHILD
    finish_syscall(p);
    return;
  }
  // 4. Block. A wakeup (child exit/stop) re-runs the wait body.
  p.state = ProcState::kSleeping;
  p.sleep_reason = SleepReason::kWaitChild;
  push_kwork(p, config_.costs.wait_base, WorkKind::kSyscallBody,
             KernelAction::kApplySyscall);
  // pending_syscall intentionally stays set to SysWait for the retry.
}

void Kernel::do_kill(Process& sender, const SysKill& req) {
  if (!has_process(req.target) || !process(req.target).alive()) {
    sender.last_syscall_result = -1;  // ESRCH
    return;
  }
  send_signal(process(req.target), req.sig);
  sender.last_syscall_result = 0;
}

void Kernel::do_ptrace(Process& p, const SysPtrace& req) {
  if (tracer_ != nullptr) tracer_->instant(now_, "ptrace", p.pid, p.tgid);
  if (!has_process(req.target) || !process(req.target).alive()) {
    p.last_syscall_result = -1;
    return;
  }
  Process& target = process(req.target);

  switch (req.op) {
    case PtraceOp::kAttach: {
      // LSM gate: the paper notes ptrace privileges are controlled by the
      // Linux Security Modules and may be denied in utility settings.
      if (config_.ptrace_policy == PtracePolicy::kPrivilegedOnly && !p.privileged) {
        p.last_syscall_result = -1;  // EPERM
        return;
      }
      if (target.traced() || &target == &p) {
        p.last_syscall_result = -1;
        return;
      }
      target.tracer = p.pid;
      p.tracees.push_back(target.pid);
      send_signal(target, Signal::kStop);
      p.last_syscall_result = 0;
      return;
    }
    case PtraceOp::kCont: {
      if (target.tracer != p.pid || target.state != ProcState::kStopped) {
        p.last_syscall_result = -1;
        return;
      }
      target.trace_stopped = false;
      wake_process(target);
      p.last_syscall_result = 0;
      return;
    }
    case PtraceOp::kPokeUser: {
      if (target.tracer != p.pid) {
        p.last_syscall_result = -1;
        return;
      }
      target.dregs.arm(req.slot, req.addr);
      p.last_syscall_result = 0;
      return;
    }
  }
  p.last_syscall_result = -1;
}

void Kernel::do_exit(Process& p) {
  MTR_ENSURE(!p.exited);
  MTR_ENSURE(alive_count_ > 0);
  --alive_count_;
  p.exited = true;
  p.state = ProcState::kZombie;
  // A dead process never runs again: free its execution payload and keep
  // the PCB as a tombstone of identity and accounting, so memory tracks
  // live work rather than every process a run ever created. Assigning a
  // fresh container frees its storage, which clear() would keep.
  p.program.reset();
  p.user = UserWork{};
  p.kwork = decltype(p.kwork){};
  p.pending_signals = decltype(p.pending_signals){};
  p.pending_syscall.reset();
  p.zombies_to_reap = decltype(p.zombies_to_reap){};
  p.stop_notifications = decltype(p.stop_notifications){};

  flush_charges();
  hooks_.each<HookEvent::kProcessExited>([&](AccountingHook& h) {
    h.on_process_exited(now_, p.pid, p.tgid, p.exit_code);
  });

  // Last thread of the group releases the address space: a check over the
  // group's members, not the process table.
  const bool group_alive = std::ranges::any_of(
      group_members(p.tgid), [&](Pid m) { return process(m).alive(); });
  if (!group_alive && mm_.has_space(p.tgid)) mm_.destroy_space(p.tgid);

  // Orphan children; zombie orphans are auto-reaped.
  for (const Pid child_pid : p.children) {
    if (!has_process(child_pid)) continue;
    Process& child = process(child_pid);
    child.parent = Pid{};
    if (child.state == ProcState::kZombie) child.state = ProcState::kReaped;
  }
  p.children = decltype(p.children){};

  // Release tracees; those in a trace stop resume.
  for (const Pid tracee_pid : p.tracees) {
    if (!has_process(tracee_pid)) continue;
    Process& tracee = process(tracee_pid);
    tracee.tracer = Pid{};
    tracee.dregs.reset();
    if (tracee.state == ProcState::kStopped && tracee.trace_stopped) {
      tracee.trace_stopped = false;
      wake_process(tracee);
    }
  }
  p.tracees = decltype(p.tracees){};

  notify_exit(p);
}

}  // namespace mtr::kernel
