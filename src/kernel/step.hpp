// The guest program model.
//
// Simulated programs are behaviour generators: the kernel repeatedly asks
// the current process's Program for its next Step and executes it. A Step is
// either a slab of user-mode compute (with a declared memory-touch profile:
// one page run and at most one hot address, so paging and hardware
// breakpoints behave realistically), a system call, or process exit. Loops with 2^34 iterations are generated lazily — the
// simulator's cost is proportional to kernel interactions, not instructions.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>

#include "common/types.hpp"

namespace mtr::kernel {

class Program;

/// Creates a fresh Program instance; used by fork/execve/clone to describe
/// what the new (or replaced) execution image runs.
using ProgramFactory = std::function<std::unique_ptr<Program>()>;

// ---------------------------------------------------------------------------
// Signals (the subset the attacks exercise).
// ---------------------------------------------------------------------------

enum class Signal : std::uint8_t {
  kChld,
  kStop,
  kCont,
  kKill,
  kTrap,  // debug exception under ptrace
  kSegv,
  kUsr1,
};

const char* to_string(Signal s);

// ---------------------------------------------------------------------------
// Memory behaviour of a compute step.
// ---------------------------------------------------------------------------

/// An address the step reads/writes every `period` cycles — the hook for
/// hardware-breakpoint (thrashing-attack) modelling.
struct HotAccess {
  VAddr addr;
  Cycles period;
};

/// Declares which pages a compute step touches and how often: one
/// contiguous run of `page_count` pages from `first_page`, plus at most one
/// hot address. The engine walks the run round-robin, one touch every
/// `touch_period` cycles; each touch consults the memory manager and may
/// fault.
struct MemoryProfile {
  PageId first_page{0};
  std::uint64_t page_count = 0;
  Cycles touch_period{0};  // 0 = step touches no memory
  std::optional<HotAccess> hot;

  bool touches_memory() const { return touch_period.v > 0 && page_count > 0; }
};

// ---------------------------------------------------------------------------
// Code identity (source-integrity instrumentation).
// ---------------------------------------------------------------------------

/// Identity of a code object mapped into an address space. `content_tag`
/// stands for the object's bytes: the integrity monitor hashes it, so a
/// tampered library ("libm#evil") measures differently from the genuine one
/// ("libm#1.0").
struct CodeMapping {
  std::string object;       // e.g. "/lib/libm.so"
  std::string content_tag;  // e.g. "libm#1.0"
  std::uint64_t pages = 1;
};

// ---------------------------------------------------------------------------
// System call requests.
// ---------------------------------------------------------------------------

struct SysFork {
  ProgramFactory child;
};

/// Creates a thread: same thread group, shared address space.
struct SysClone {
  ProgramFactory thread;
};

struct SysExecve {
  ProgramFactory image;
  std::string path;
};

/// Waits for any child (or tracee) to exit or stop; result is its pid.
struct SysWait {};

struct SysKill {
  Pid target;
  Signal sig;
};

/// The ptrace requests the thrashing attack issues.
enum class PtraceOp : std::uint8_t {
  kAttach,    // become tracer; sends SIGSTOP to target
  kCont,      // resume a trace-stopped target
  kPokeUser,  // program debug register `slot` with `addr`
};

struct SysPtrace {
  PtraceOp op;
  Pid target;
  int slot = 0;
  VAddr addr{};
};

struct SysNanosleep {
  Cycles duration;
};

struct SysMmap {
  std::uint64_t pages;
};

/// Blocking disk I/O of `blocks` requests (each one disk service time).
struct SysDiskIo {
  std::uint64_t blocks = 1;
};

struct SysGetRusage {};

/// mmap of a code object; emits a source-integrity measurement event.
struct SysMapCode {
  CodeMapping mapping;
};

/// Catch-all kernel service with a caller-declared body cost.
struct SysGeneric {
  std::string name;
  Cycles body_cost;
};

/// Every system call a guest program can issue.
using SyscallRequest =
    std::variant<SysFork, SysClone, SysExecve, SysWait, SysKill, SysPtrace,
                 SysNanosleep, SysMmap, SysDiskIo, SysGetRusage, SysMapCode,
                 SysGeneric>;

// ---------------------------------------------------------------------------
// Steps.
// ---------------------------------------------------------------------------

/// A slab of user-mode computation.
struct ComputeStep {
  Cycles cycles;
  MemoryProfile mem;
  /// Identity tag recorded in the execution-integrity witness; names the
  /// code region this compute models (e.g. "whetstone.kernel3").
  std::string tag;
};

struct SyscallStep {
  SyscallRequest req;
};

struct ExitStep {
  int code = 0;
};

using Step = std::variant<ComputeStep, SyscallStep, ExitStep>;

// ---------------------------------------------------------------------------
// Program interface.
// ---------------------------------------------------------------------------

/// Kernel services visible to a running program.
class ProcessContext {
 public:
  virtual ~ProcessContext() = default;

  virtual Pid pid() const = 0;
  virtual Tgid tgid() const = 0;
  /// Result of the most recent syscall (child pid for fork, reaped pid for
  /// wait, 0/-1 for others).
  virtual std::int64_t last_result() const = 0;
  virtual Cycles now() const = 0;
};

/// A guest program: a lazy generator of Steps. Implementations must
/// eventually yield ExitStep. `next` is called exactly once per completed
/// step; blocking syscalls complete before the next call.
class Program {
 public:
  virtual ~Program() = default;

  virtual Step next(ProcessContext& ctx) = 0;

  /// Human-readable program name for traces and experiment output.
  virtual std::string name() const = 0;
};

}  // namespace mtr::kernel
