// Deterministic fault injection for the sweep pipeline: a FaultPlan parsed
// from `--fault-inject` (or the MTR_FAULT_INJECT environment variable, so a
// supervisor can target one subprocess without touching its argv) names
// crash points the driver arms — aborts between cells, a SIGKILL watchdog,
// torn final lines, and transient sink-flush failures. The same seam backs
// the chaos tests and the CI chaos job: every recovery path mtr_fleet
// relies on is exercised by a seeded, reproducible fault schedule instead
// of hand-rolled kill loops.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace mtr::dist {

/// Exit code of an injected crash (`crash-after-cell`). Distinct from the
/// generic error exit 1 so supervisors and tests can tell an injected abort
/// from a real failure.
inline constexpr int kFaultCrashExitCode = 70;

/// One parsed fault schedule. All faults are optional and compose; an
/// empty plan injects nothing and costs nothing.
struct FaultPlan {
  /// crash-after-cell=K: std::_Exit(kFaultCrashExitCode) right after the
  /// K-th completed cell's records are flushed (and its heartbeat/metrics
  /// snapshots published). K=0 crashes after the sinks open but before any
  /// cell runs, leaving zero-byte output files behind.
  std::optional<std::uint64_t> crash_after_cell;
  /// torn-tail=B: at crash time, chop B bytes off the end of every active
  /// sink file — the torn final line a kill mid-write leaves. Requires
  /// crash-after-cell.
  std::uint64_t torn_tail_bytes = 0;
  /// sigkill-after-ms=T: a detached watchdog thread raises SIGKILL against
  /// the process T milliseconds after the driver arms. The hardest kill:
  /// no unwinding, no flush, any write may tear.
  std::optional<std::uint64_t> sigkill_after_ms;
  /// fail-flush-at=J: the J-th sink flush (1-based) throws before any byte
  /// of that write reaches its file — a transient I/O failure the sweep
  /// reports as an error. The driver flushes before each of a cell's two
  /// writes, CSV then JSONL, so an even J fails a JSONL write whose CSV
  /// rows are already on disk. The pool writes no later cell, so the files
  /// hold a clean prefix that a clean --resume completes.
  std::optional<std::uint64_t> fail_flush_at;

  bool active() const {
    return crash_after_cell.has_value() || sigkill_after_ms.has_value() ||
           fail_flush_at.has_value();
  }
};

/// Parses "key=value[,key=value...]" with the keys above, each at most once
/// and in the order above. An empty spec is the empty plan. Throws
/// UsageError naming the spec on unknown, empty or repeated clauses,
/// malformed values, torn-tail without crash-after-cell, or any spelling
/// other than the canonical one: an accepted spec equals its to_string.
FaultPlan parse_fault_plan(const std::string& spec);

/// Canonical spec string (parse_fault_plan round-trips it); "" for the
/// empty plan. What mtr_fleet exports as MTR_FAULT_INJECT.
std::string to_string(const FaultPlan& plan);

/// Arms a FaultPlan inside the sweep driver. The driver calls the on_*
/// hooks at the matching pipeline points; each fires its fault exactly
/// once. Thread-safe: counters are atomic (the flush/cell hooks run under
/// the runner's emission lock, the watchdog on its own thread).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {}

  bool active() const { return plan_.active(); }

  /// Starts the SIGKILL watchdog thread, if configured. Call once.
  void arm_sigkill();

  /// Replaces the set of files torn-tail truncates at crash time (the
  /// current sweep's active sink files).
  void set_active_files(std::vector<std::string> files);

  /// crash-after-cell=0 fires here (sinks exist, nothing written).
  void on_sinks_open();

  /// crash-after-cell=K fires after the K-th call.
  void on_cell_complete();

  /// fail-flush-at=J throws std::runtime_error on the J-th call. Returns
  /// at once when the plan has no flush fault.
  void on_sink_flush(const char* kind);

 private:
  [[noreturn]] void crash_now();

  FaultPlan plan_;
  std::vector<std::string> files_;
  std::atomic<std::uint64_t> cells_{0};
  std::atomic<std::uint64_t> flushes_{0};
};

}  // namespace mtr::dist
