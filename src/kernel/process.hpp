// Process control block and its execution state.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "hw/debug_registers.hpp"
#include "kernel/step.hpp"

namespace mtr::kernel {

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
  // Cycles to step.mem.hot's next access; UINT64_MAX while no armed debug
  // register watches it (or the step has none).
  Cycles until_hot{UINT64_MAX};
  bool active = false;
};

/// One process's resource usage, as getrusage reports it (jiffy counters)
/// next to the simulator's ground truth. A thread group's usage is the sum
/// over its members (Kernel::group_usage).
struct Usage {
  CpuUsageTicks ticks;         // the commodity kernel's own jiffy accounting
  CpuUsageCycles true_cycles;  // cycle-exact time while current, by mode
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t voluntary_switches = 0;
  std::uint64_t involuntary_switches = 0;
  std::uint64_t signals_received = 0;
  std::uint64_t debug_exceptions = 0;

  bool operator==(const Usage&) const = default;
  Usage& operator+=(const Usage& o) {
    ticks += o.ticks;
    true_cycles += o.true_cycles;
    minor_faults += o.minor_faults;
    major_faults += o.major_faults;
    voluntary_switches += o.voluntary_switches;
    involuntary_switches += o.involuntary_switches;
    signals_received += o.signals_received;
    debug_exceptions += o.debug_exceptions;
    return *this;
  }
};

class Process {
 public:
  /// The trailing seed is accepted and ignored: a process draws no
  /// randomness. perfbench/probes.cpp still passes one, and the benchmark's
  /// files change only in a benchmark change of their own.
  Process(Pid pid, Tgid tgid, Pid parent, std::string name,
          std::unique_ptr<Program> program, Nice nice, std::uint64_t = 0);

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  // Identity.
  const Pid pid;
  const Tgid tgid;
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
  /// Round-robin position over the current profile's page run; persists
  /// across steps so successive compute chunks sweep onward through the
  /// working set instead of re-touching its head.
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

  // Accounting (kernel-maintained; meters may keep their own views). The
  // only copy of these counters: a group's usage is its members' sum.
  Usage usage;
  // Group leader only: the threads it and its threads cloned, in creation
  // (ascending pid) order. Kept past exit, like the usage it indexes.
  std::vector<Pid> threads;

  bool runnable() const {
    return state == ProcState::kReady || state == ProcState::kRunning;
  }
  bool alive() const {
    return state != ProcState::kZombie && state != ProcState::kReaped;
  }
  bool traced() const { return tracer.valid(); }
};

}  // namespace mtr::kernel
