// The simulated uniprocessor kernel.
//
// A discrete-event engine that reproduces the accounting-relevant behaviour
// of a commodity Linux 2.6-era kernel on one core:
//
//  * processes run user compute and interruptible kernel work under a
//    pluggable scheduler with wakeup preemption;
//  * a periodic timer interrupt performs jiffy accounting: one whole tick
//    is charged to whichever process is current, utime or stime by the mode
//    at the interrupt (the paper's central vulnerability);
//  * device interrupt handlers (NIC, disk) are billed to the interrupted
//    process's system time (the interrupt-flooding vulnerability);
//  * page-fault handling is billed to the faulting process, with major
//    faults blocking on a swap disk (the exception-flooding vulnerability);
//  * ptrace with hardware debug registers generates trace stops whose
//    kernel costs land on the tracee (the thrashing vulnerability);
//  * fork/execve start metering at process creation, before the target
//    program's first instruction (the shell/library vulnerability).
//
// Alongside the commodity jiffy counters the engine keeps cycle-exact
// ground truth per process and publishes every event through AccountingHook,
// so alternative meters observe the same run.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "hw/cost_model.hpp"
#include "hw/disk.hpp"
#include "hw/nic.hpp"
#include "hw/timer.hpp"
#include "kernel/accounting.hpp"
#include "kernel/event_queue.hpp"
#include "kernel/process.hpp"
#include "kernel/scheduler.hpp"
#include "mm/memory_manager.hpp"

namespace mtr::trace {
class Tracer;
struct KernelStats;
struct Telemetry;
}  // namespace mtr::trace

namespace mtr::kernel {

/// LSM-style policy gate on ptrace, modelling the paper's remark that the
/// thrashing attack needs privileges controlled by the security modules.
enum class PtracePolicy : std::uint8_t { kAllowAll, kPrivilegedOnly };

/// "allow_all" / "privileged_only" — the serialized form (sweep records,
/// progress lines).
const char* to_string(PtracePolicy p);

struct KernelConfig {
  CpuHz cpu{};
  TimerHz hz{};
  std::uint32_t ram_frames = 16 * 1024;  // 64 MiB at 4 KiB pages
  std::uint32_t reclaim_batch = 256;     // kswapd-style batch reclaim size
  hw::CostModel costs{};
  PtracePolicy ptrace_policy = PtracePolicy::kAllowAll;
  /// Timer sleeps (nanosleep) expire on jiffy boundaries, as on kernels
  /// where timeouts ride the tick (schedule_timeout). This quantization is
  /// load-bearing for the scheduling attack: the attacker's wakeups align
  /// just after the tick, so its bursts systematically dodge the next tick.
  bool jiffy_resolution_timers = true;
  std::uint64_t seed = 42;
  /// Drive the engine from the event/calendar queue: leap `now` between
  /// pending events (timer ticks, I/O completions, sleep expiries) and
  /// coalesce stretches it proves observation-free — long idle or pure-
  /// compute runs collapse from O(cycles-in-ticks) to O(events). The
  /// slice-stepped loop is kept as the reference implementation
  /// (`event_driven = false`); the differential suite in kernel_test and
  /// the CI equivalence job prove every meter/billing/hook observation
  /// bit-identical between the two.
  bool event_driven = true;
  /// Flush every cycle charge to the accounting hooks immediately instead
  /// of batching to kernel-interaction boundaries. Observed meter totals
  /// are identical either way (kernel_test proves it); the unbatched mode
  /// exists for that differential test and for debugging hook streams.
  bool unbatched_accounting = false;
};

struct SpawnSpec {
  std::string name;
  ProgramFactory program;
  Nice nice{0};
  bool privileged = true;
};

/// Aggregated usage for a thread group, as getrusage(RUSAGE_SELF) would
/// report it (jiffy counters) next to the simulator's ground truth.
struct GroupUsage {
  CpuUsageTicks ticks;       // the commodity kernel's answer
  CpuUsageCycles true_cycles;  // cycle-exact time the group was on-CPU
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t voluntary_switches = 0;
  std::uint64_t involuntary_switches = 0;
  std::uint64_t signals_received = 0;
  std::uint64_t debug_exceptions = 0;
};

class Kernel final {
 public:
  Kernel(KernelConfig config, std::unique_ptr<Scheduler> scheduler);
  ~Kernel();

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- setup --------------------------------------------------------------

  /// Registers an accounting observer (not owned; must outlive the kernel).
  void add_hook(AccountingHook* hook) { hooks_.add(hook); }

  /// Attaches the opt-in event tracer (not owned; null detaches). Every
  /// record site is a single `if (tracer_)` null check, so a detached
  /// kernel runs the exact pre-observability path — artifact byte-identity
  /// and the perf-smoke gate prove it.
  void set_tracer(trace::Tracer* tracer) { tracer_ = tracer; }
  /// Attaches the opt-in engine counter sink (not owned; null detaches).
  void set_stats(trace::KernelStats* stats) { stats_ = stats; }
  /// Attaches the opt-in time-series/sketch sink (not owned; null
  /// detaches). Gauges are sampled at timer ticks and leap boundaries;
  /// like the tracer, a detached kernel skips every sample site on one
  /// null check.
  void set_telemetry(trace::Telemetry* telemetry) { telemetry_ = telemetry; }

  /// Creates a top-level process (own thread group / address space).
  Pid spawn(SpawnSpec spec);

  // --- execution ----------------------------------------------------------

  /// Runs until no runnable or sleeping work remains, or `limit` is reached.
  /// Returns the cycle time at stop.
  Cycles run(Cycles limit = Cycles{UINT64_MAX});

  bool all_work_done() const;

  // --- inspection ---------------------------------------------------------

  Cycles now() const { return now_; }
  const KernelConfig& config() const { return config_; }
  Scheduler& scheduler() { return *scheduler_; }
  mm::MemoryManager& memory() { return mm_; }
  /// Devices are read-only from outside: mutations must route through the
  /// kernel (start_nic_flood, submit via syscalls) so the event-driven
  /// engine sees every future completion/arrival in its queue.
  const hw::NicModel& nic() const { return nic_; }
  const hw::DiskModel& disk() const { return disk_; }
  const hw::TimerDevice& timer() const { return timer_; }
  Xoshiro256& rng() { return rng_; }

  /// Starts/stops the junk-packet flood (the interrupt-flooding attack's
  /// device side). Routed through the kernel so the first arrival enters
  /// the event queue.
  void start_nic_flood(double packets_per_second);
  void stop_nic_flood();

  /// Looks up a process (alive, zombie, or reaped record). Throws if the
  /// pid was never issued. Pids are issued sequentially from 1, so the
  /// process table is a dense arena and lookup is an index, not a hash.
  Process& process(Pid pid);
  const Process& process(Pid pid) const;
  bool has_process(Pid pid) const {
    return pid.v >= 1 && static_cast<std::size_t>(pid.v) <= procs_.size();
  }

  /// All pids ever created, in creation order.
  const std::vector<Pid>& all_pids() const { return creation_order_; }

  /// Lowest pid whose *current* name equals `name` (i.e. the first such
  /// process in creation order), from the maintained name index — O(1)
  /// instead of a scan over every PCB per call.
  std::optional<Pid> find_pid_by_name(std::string_view name) const;

  /// Sum of usage over every process in the thread group (living and dead),
  /// i.e. what the billed customer is charged for the job. Served from the
  /// per-group accumulator maintained on every counter update: O(1).
  GroupUsage group_usage(Tgid tg) const;

  /// Ticks charged to the idle context (CPU unclaimed at a tick).
  Ticks idle_ticks() const { return idle_ticks_; }
  CpuUsageCycles idle_cycles() const { return idle_cycles_; }

  /// Administrative SIGKILL from outside the simulation (experiment
  /// tear-down). Queues the signal and breaks any interruptible sleep.
  void force_kill(Pid pid);

  /// Renices a process, repositioning it in the run queue if needed. Used
  /// by the setpriority syscall and by experiment setup.
  void set_nice(Pid pid, Nice nice);

 private:
  friend class KernelProcessContext;

  enum class KernelAction : int {
    kNone = 0,
    kApplySyscall,   // run pending_syscall semantics, then syscall-exit work
    kReturnToUser,   // syscall epilogue finished
    kFinishExit,     // tear the process down
    kStopSelf,       // signal-induced stop (SIGSTOP / trace SIGTRAP)
    kBlockOnDisk,    // submit one swap request for self and sleep on it
  };

  // Engine phases (run_current and the handlers are shared between the two
  // loops; the slice loop scans device next-times, the event loop pops the
  // calendar queue).
  Cycles run_slices(Cycles limit);
  Cycles run_events(Cycles limit);
  RunStop run_current(Cycles boundary);
  void dispatch_external();
  std::optional<Cycles> next_external_event() const;
  void dispatch_event(const Event& e);
  bool idle_leap(Cycles limit);
  void running_leap(Cycles limit);
  void handle_timer_tick();
  void handle_nic_arrival();
  void handle_disk_completion();
  void handle_sleep_expiries();
  void handle_sleep_expiry(const Event& e);

  // Future-event registration, branching on the engine mode. Every path
  // that makes a device completion or timer expiry pending goes through
  // these so the calendar queue never misses a wakeup.
  void schedule_sleep_expiry(const Process& p);
  void submit_disk_request(Pid waiter);

  // Current-process micro-execution.
  bool run_kernel_work(Cycles boundary);   // true if progress was made
  bool process_one_signal(Process& p);     // true if a signal was consumed
  bool fetch_next_step(Process& p);        // true if a step was installed
  void run_user_compute(Cycles boundary);
  void begin_user_step(Process& p, ComputeStep step);
  void refresh_hot_schedule(Process& p);
  void touch_memory(Process& p);
  void hot_access(Process& p, std::size_t hot_index);

  // Actions and syscalls.
  void apply_action(KernelAction action);
  void apply_syscall(Process& p);
  void finish_syscall(Process& p);
  void do_fork(Process& parent, const SysFork& req);
  void do_clone(Process& parent, const SysClone& req);
  void do_execve(Process& p, const SysExecve& req);
  void do_wait(Process& p);
  void do_kill(Process& sender, const SysKill& req);
  void do_ptrace(Process& p, const SysPtrace& req);
  void do_exit(Process& p);

  // Process management.
  Pid allocate_pid();
  Process& create_process(std::string name, std::unique_ptr<Program> program,
                          Pid parent, Tgid tgid, Nice nice, bool privileged);
  void rename_process(Process& p, std::string name);
  void wake_process(Process& p);
  void send_signal(Process& target, Signal sig);
  void notify_stop(Process& stopped);
  void notify_exit(Process& dead);
  void reap(Process& parent, Process& child);
  void stop_current_and_switch();   // after block/stop/exit of current
  void preempt_current();
  void context_switch_in(Process& next);

  // Accounting.
  void charge(Process* p, WorkKind kind, Cycles amount, Pid beneficiary);
  void charge_idle(Cycles amount);
  void push_kwork(Process& p, Cycles cost, WorkKind kind, KernelAction action,
                  Pid beneficiary = Pid{});
  CpuMode current_mode(const Process& p) const;

  // Batched hook dispatch: charges accumulate (adjacent same-key charges
  // coalesce) and flush to the hooks at kernel-interaction boundaries —
  // before any non-on_cycles hook event, when the batch fills, and when
  // run() returns — collapsing the per-slice virtual dispatch that
  // dominates the sweep hot path. Every hook is a pure accumulator over
  // (current, kind, amount, beneficiary), so coalescing adjacent
  // same-key charges leaves all observed totals bit-identical.
  void enqueue_charge(Pid pid, Tgid tg, WorkKind kind, Cycles amount,
                      Pid beneficiary);
  void flush_charges();

  // Samples every telemetry gauge at now_ (precondition: telemetry_ set).
  void sample_telemetry();

  KernelConfig config_;
  std::unique_ptr<Scheduler> scheduler_;
  mm::MemoryManager mm_;
  hw::TimerDevice timer_;
  hw::NicModel nic_;
  hw::DiskModel disk_;
  Xoshiro256 rng_;
  HookList hooks_;

  // Opt-in observability sinks (see src/trace); null = off, the default.
  trace::Tracer* tracer_ = nullptr;
  trace::KernelStats* stats_ = nullptr;
  trace::Telemetry* telemetry_ = nullptr;

  Cycles now_{0};
  Process* current_ = nullptr;
  bool need_resched_ = false;

  // Dense process arena: slot pid.v - 1 (pids are issued sequentially from
  // 1 and a slot is never reused — an exited process frees its execution
  // payload and stays as a tombstone of identity and accounting — so slots
  // and Process pointers stay valid for the kernel's lifetime).
  std::vector<std::unique_ptr<Process>> procs_;
  std::vector<Pid> creation_order_;
  std::int32_t next_pid_ = 1;
  std::uint64_t alive_count_ = 0;

  // Per-thread-group accounting, maintained incrementally at every counter
  // update site. Slot tgid.v - 1 (a tgid is its leader's pid); non-leader
  // slots stay null. `alive` makes the last-thread-of-group check in
  // do_exit O(1) instead of a scan.
  struct GroupRecord {
    GroupUsage usage;
    std::uint32_t alive = 0;
  };
  std::vector<std::unique_ptr<GroupRecord>> groups_;
  GroupRecord& group_record(Tgid tg);
  const GroupRecord& group_record(Tgid tg) const;

  // name -> pids currently bearing it, ascending (so front() is the first
  // in creation order). Maintained by create_process/rename_process.
  struct TransparentStringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_map<std::string, std::vector<Pid>, TransparentStringHash,
                     std::equal_to<>>
      name_index_;

  // Pending hook charges (see enqueue_charge/flush_charges).
  struct PendingCharge {
    Cycles now;  // clock after the (last coalesced) charge
    Pid pid;
    Tgid tg;
    Pid beneficiary;
    WorkKind kind;
    Cycles amount;
  };
  static constexpr std::size_t kChargeBatchCap = 32;
  std::array<PendingCharge, kChargeBatchCap> charge_batch_{};
  std::size_t charge_batch_size_ = 0;

  // nanosleep expiry queue: (wake_at, pid), earliest first.
  using SleepEntry = std::pair<Cycles, Pid>;
  struct SleepLater {
    bool operator()(const SleepEntry& a, const SleepEntry& b) const {
      return a.first > b.first || (a.first == b.first && a.second.v > b.second.v);
    }
  };
  std::priority_queue<SleepEntry, std::vector<SleepEntry>, SleepLater> sleepers_;

  // Calendar queue driving run_events (unused by the slice loop). Holds
  // exactly one live timer-tick entry at timer_.next_fire(), one entry per
  // in-flight disk request, one live NIC-arrival entry while flooding, and
  // one entry per pending sleep expiry (stale entries are validated away
  // on pop).
  EventQueue events_;

  Ticks idle_ticks_{};
  CpuUsageCycles idle_cycles_{};
};

}  // namespace mtr::kernel
