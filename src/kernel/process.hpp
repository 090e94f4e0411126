// Process control block and its execution state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "hw/debug_registers.hpp"
#include "kernel/step.hpp"

namespace mtr::kernel {

struct GroupUsage;  // kernel.hpp; per-tgid accumulator the PCB points into

enum class ProcState : std::uint8_t {
  kReady,     // runnable, waiting for CPU
  kRunning,   // current on the CPU
  kSleeping,  // blocked (wait/nanosleep/disk)
  kStopped,   // SIGSTOP / trace-stopped
  kZombie,    // exited, not yet reaped
  kReaped,    // fully gone; PCB kept as a tombstone (identity, accounting)
};

const char* to_string(ProcState s);

enum class SleepReason : std::uint8_t {
  kNone,
  kWaitChild,  // in wait(): wakes on child exit/stop
  kNanosleep,  // timed sleep
  kDiskIo,     // waiting for a disk completion
};

/// Why the currently executing slice of the process stopped early.
enum class RunStop : std::uint8_t {
  kBoundary,   // hit the requested time boundary (interrupt due)
  kBlocked,    // went to sleep / stopped / exited
  kResched,    // preemption requested
};

/// Per-process scheduler scratchpad (policy-specific fields side by side;
/// only the active scheduler touches its own).
struct SchedData {
  bool queued = false;
  // O(1) scheduler.
  std::uint32_t quantum_ticks_left = 0;
  /// Set by the kernel when the process wakes from a blocking sleep; the
  /// O(1) policy translates it into the classic interactivity bonus (a
  /// dynamic-priority boost that lets I/O-ish tasks preempt CPU hogs).
  /// Cleared once the process has consumed a full tick.
  bool wake_boost = false;
  /// Set when the task burned a full timeslice without sleeping; the O(1)
  /// policy penalizes such CPU hogs with a dynamic-priority malus.
  bool cpu_hog = false;
  std::int8_t queued_level = 0;  // effective level used at enqueue time
  // CFS.
  Cycles vruntime{0};
};

/// In-flight kernel work for the process (interruptible kernel-mode
/// execution, e.g. a syscall body). When it drains, `on_done` semantics are
/// applied by the kernel engine.
struct KernelWork {
  Cycles remaining{0};
  // What the cycles are, for accounting.
  std::uint8_t kind = 0;  // WorkKind underlying value (avoids include cycle)
  // Action applied when the work drains; interpreted by the engine.
  int action = 0;  // KernelAction underlying value
  // Who the work actually serves; invalid = the process itself. Process-
  // aware meters re-attribute using this (e.g. debug-exception handling
  // caused by a tracer is the tracer's consumption, not the tracee's).
  Pid beneficiary{};
};

/// A queued signal with its originator (invalid for kernel-generated).
struct PendingSignal {
  Signal sig;
  Pid sender{};
};

/// In-flight user compute state.
struct UserWork {
  ComputeStep step;
  Cycles remaining{0};
  // Memory touch bookkeeping.
  Cycles until_next_touch{0};
  // Hot-address bookkeeping (parallel to step.mem.hot).
  std::vector<Cycles> until_hot;
  bool active = false;
};

class Process {
 public:
  Process(Pid pid, Tgid tgid, Pid parent, std::string name,
          std::unique_ptr<Program> program, Nice nice, std::uint64_t rng_seed);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  // Identity.
  const Pid pid;
  Tgid tgid;
  Pid parent;
  std::string name;

  // Execution. do_exit frees the heap-owning payload below (program, step,
  // kernel work, pending syscall, signal and family queues). The queues
  // are vectors because an empty vector owns no storage, while an empty
  // std::deque still holds a node.
  std::unique_ptr<Program> program;
  ProcState state = ProcState::kReady;
  SleepReason sleep_reason = SleepReason::kNone;
  Cycles wake_at{0};         // for kNanosleep

  // Step in flight.
  UserWork user;
  /// Round-robin position over the current memory profile; persists across
  /// steps so successive compute chunks sweep onward through the working
  /// set instead of re-touching its head.
  std::uint64_t mem_cursor = 0;
  std::vector<KernelWork> kwork;     // kernel work queue (front runs first)
  std::int64_t last_syscall_result = 0;
  std::optional<SyscallRequest> pending_syscall;  // body semantics to apply

  // Scheduling.
  Nice nice;
  SchedData sched;

  // Signals and tracing.
  std::vector<PendingSignal> pending_signals;  // oldest first
  Pid tracer;                 // invalid if untraced
  std::vector<Pid> tracees;
  bool trace_stopped = false; // stopped via SIGSTOP/SIGTRAP while traced
  hw::DebugRegisters dregs;

  // Family.
  std::vector<Pid> children;
  std::vector<Pid> zombies_to_reap;   // children already exited
  std::vector<Pid> stop_notifications; // stopped tracees/children to report

  // Credentials (coarse root/non-root model; gates renice and ptrace).
  bool privileged = true;

  // Exit.
  int exit_code = 0;
  bool exited = false;

  // Accounting (kernel-maintained; meters may keep their own views).
  CpuUsageTicks tick_usage;   // the commodity kernel's own jiffy accounting
  CpuUsageCycles true_usage;  // cycle-exact time while current, by mode
  /// The thread group's running usage total, owned by the kernel and shared
  /// by every group member. Mirrored on each per-process counter update so
  /// Kernel::group_usage is O(1) instead of a scan over every PCB.
  GroupUsage* group_acct = nullptr;
  std::uint64_t voluntary_switches = 0;
  std::uint64_t involuntary_switches = 0;
  std::uint64_t signals_received = 0;
  std::uint64_t debug_exceptions = 0;
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;

  // Deterministic per-process randomness.
  Xoshiro256 rng;

  bool runnable() const {
    return state == ProcState::kReady || state == ProcState::kRunning;
  }
  bool alive() const {
    return state != ProcState::kZombie && state != ProcState::kReaped;
  }
  bool traced() const { return tracer.valid(); }
};

}  // namespace mtr::kernel
