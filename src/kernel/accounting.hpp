// Accounting instrumentation.
//
// The kernel publishes every accounting-relevant event through the
// AccountingHook interface. The commodity tick meter, the fine-grained TSC
// meter, the process-aware (PAIS) meter and the integrity monitors are all
// observers of the same stream, so one simulated run yields every meter's
// verdict simultaneously — the experiments compare them directly.
//
// A hook declares the events it observes (AccountingHook::events()), and the
// kernel dispatches each event only to the hooks that declared it: a charge
// reaches only the cycle observers, a step begin only the step observers.
// A hook that does not narrow its declaration observes all six events.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "kernel/step.hpp"

namespace mtr::kernel {

/// What a slice of CPU time was spent doing. `kUserCompute` runs in user
/// mode; everything else is kernel-mode work.
enum class WorkKind : std::uint8_t {
  kUserCompute,
  kSyscallEntry,
  kSyscallBody,
  kSyscallExit,
  kTimerIrq,
  kDeviceIrq,
  kContextSwitch,
  kSignalGenerate,
  kSignalDeliver,
  kPageFaultMinor,
  kPageFaultMajor,
  kDebugException,
  kIdle,
};

const char* to_string(WorkKind k);

inline constexpr CpuMode mode_of(WorkKind k) {
  return k == WorkKind::kUserCompute ? CpuMode::kUser : CpuMode::kKernel;
}

/// The six hook events, one per AccountingHook callback.
enum class HookEvent : std::uint8_t {
  kCycles,
  kTicks,
  kCodeMapped,
  kStepBegin,
  kProcessCreated,
  kProcessExited,
};
inline constexpr std::size_t kHookEventCount = 6;

/// The bitmask of `events`, as AccountingHook::events() returns it.
template <typename... E>
constexpr std::uint8_t event_mask(E... events) {
  return static_cast<std::uint8_t>(((1u << static_cast<unsigned>(events)) | ... | 0u));
}
inline constexpr std::uint8_t kAllHookEvents = (1u << kHookEventCount) - 1;

/// Observer of kernel accounting events. Default implementations ignore
/// everything; meters override what they need and declare it in events().
/// Hooks must not mutate kernel state.
class AccountingHook {
 public:
  virtual ~AccountingHook() = default;

  /// The events this hook observes (event_mask bits), read once when the
  /// hook is added; the kernel sends it no other event.
  virtual std::uint8_t events() const { return kAllHookEvents; }

  /// `amount` cycles were consumed while `current` was the running context.
  /// `beneficiary` is the process the work actually served: equal to
  /// `current` for its own compute/syscalls/faults, the I/O owner for disk
  /// completions, and invalid (system) for unsolicited work such as junk-
  /// packet interrupts. The distinction is exactly what separates the
  /// commodity accounting policy from process-aware accounting.
  virtual void on_cycles(Cycles now, Pid current, Tgid current_tg, WorkKind kind,
                         Cycles amount, Pid beneficiary) {
    (void)now; (void)current; (void)current_tg; (void)kind; (void)amount;
    (void)beneficiary;
  }

  /// One or more timer ticks fired at `first`, `first + period`, …, while
  /// `current` ran (or the CPU idled, kIdlePid) in `mode` throughout — the
  /// commodity kernel charges one whole jiffy per tick to `current`. A lone
  /// tick arrives with `count` 1; the event-driven core folds stretches it
  /// proved observation-free into one call with a larger `count`.
  virtual void on_ticks(Cycles first, Cycles period, std::uint64_t count,
                        Pid current, Tgid current_tg, CpuMode mode) {
    (void)first; (void)period; (void)count; (void)current; (void)current_tg;
    (void)mode;
  }

  /// A code object was mapped into `space` (execve image, shared library,
  /// injected payload…). Source-integrity raw material.
  virtual void on_code_mapped(Cycles now, Tgid space, const CodeMapping& mapping) {
    (void)now; (void)space; (void)mapping;
  }

  /// A process began a new program step; `tag` names compute regions (empty
  /// for untagged), `kind_name` is "compute"/"syscall:<name>"/"exit".
  /// Execution-integrity raw material.
  virtual void on_step_begin(Cycles now, Pid pid, Tgid tgid, std::string_view kind_name,
                             std::string_view tag) {
    (void)now; (void)pid; (void)tgid; (void)kind_name; (void)tag;
  }

  /// Process lifecycle, for report boundaries.
  virtual void on_process_created(Cycles now, Pid pid, Tgid tgid, Pid parent,
                                  std::string_view program_name) {
    (void)now; (void)pid; (void)tgid; (void)parent; (void)program_name;
  }
  virtual void on_process_exited(Cycles now, Pid pid, Tgid tgid, int code) {
    (void)now; (void)pid; (void)tgid; (void)code;
  }
};

/// Fan-out lists of hooks owned by the kernel, one list per event.
class HookList final {
 public:
  /// Files `hook` under every event it declares, in registration order.
  void add(AccountingHook* hook) {
    const std::uint8_t mask = hook->events();
    for (std::size_t e = 0; e < kHookEventCount; ++e)
      if ((mask >> e) & 1u) lists_[e].push_back(hook);
  }

  /// Whether some hook observes `E`; with no cycle observer the kernel
  /// skips charge batching entirely (hot-path gate).
  template <HookEvent E>
  bool observed() const {
    return !lists_[static_cast<std::size_t>(E)].empty();
  }

  /// Calls `f` on every hook that observes `E`.
  template <HookEvent E, typename F>
  void each(F&& f) const {
    for (AccountingHook* h : lists_[static_cast<std::size_t>(E)]) f(*h);
  }

 private:
  std::array<std::vector<AccountingHook*>, kHookEventCount> lists_;
};

}  // namespace mtr::kernel
