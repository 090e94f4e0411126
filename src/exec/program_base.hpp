// Reusable Program building blocks.
//
// Guest programs are step generators; these helpers cover the common shapes:
// a batch queue, a callback generator (for loops that must not be
// materialized), and a chain that splices sub-programs between step phases
// (how the loader wraps a workload with linker/constructor/destructor work).
// A fixed step list is a chain with one literal phase.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "kernel/step.hpp"

namespace mtr::exec {

using kernel::ComputeStep;
using kernel::ExitStep;
using kernel::MemoryProfile;
using kernel::ProcessContext;
using kernel::Program;
using kernel::ProgramFactory;
using kernel::Step;
using kernel::SyscallStep;

// --- step factory helpers ---------------------------------------------------

/// A user-compute step of `cycles` with an optional witness tag.
Step compute(Cycles cycles, std::string tag = {});

/// A user-compute step with a memory profile (a page run plus an optional
/// hot address; plain data, so a step owns no heap memory beyond its tag).
Step compute_mem(Cycles cycles, MemoryProfile mem, std::string tag = {});

/// Wraps any SyscallRequest alternative into a step.
template <typename Request>
Step syscall(Request req) {
  return SyscallStep{kernel::SyscallRequest{std::move(req)}};
}

/// Process exit.
Step exit_step(int code = 0);

// --- program shapes ---------------------------------------------------------

/// Base for programs that enqueue batches of steps: `generate` refills the
/// queue and returns false when the program is finished, after which an
/// ExitStep is yielded automatically.
class QueueProgram : public Program {
 public:
  Step next(ProcessContext& ctx) final;

 protected:
  /// Pushes more steps; returning false ends the program. Implementations
  /// must push at least one step when returning true.
  virtual bool generate(ProcessContext& ctx) = 0;

  void push(Step s) { pending_.push_back(std::move(s)); }
  void push_all(const std::vector<Step>& steps);

 private:
  std::deque<Step> pending_;
  bool done_ = false;
};

/// Wraps a callback that produces one step at a time; nullopt finishes the
/// program. Suited to unbounded loops (the fork-storm attacker).
class GeneratorProgram final : public Program {
 public:
  using Generator = std::function<std::optional<Step>(ProcessContext&)>;

  GeneratorProgram(std::string name, Generator gen);

  Step next(ProcessContext& ctx) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  Generator gen_;
  bool done_ = false;
};

/// A phase of a ChainProgram: either literal steps or a nested program
/// whose ExitStep is swallowed (execution continues with the next phase).
using ChainPhase = std::variant<std::vector<Step>, ProgramFactory>;

/// Splices phases into one program: the loader's image shape
/// (map/link → constructors → main → destructors → exit).
class ChainProgram final : public Program {
 public:
  ChainProgram(std::string name, std::vector<ChainPhase> phases, int exit_code = 0);

  Step next(ProcessContext& ctx) override;
  std::string name() const override { return name_; }

 private:
  bool advance_phase();

  std::string name_;
  std::vector<ChainPhase> phases_;
  std::size_t phase_ = 0;
  std::size_t step_in_phase_ = 0;
  std::unique_ptr<Program> inner_;
  bool exited_ = false;
  int exit_code_;
};

/// Convenience factory wrappers. `make_step_list` emits a fixed list of
/// steps, then exits: a chain with one literal phase.
ProgramFactory make_step_list(std::string name, std::vector<Step> steps,
                              int exit_code = 0);
ProgramFactory make_generator(std::string name, GeneratorProgram::Generator gen);
ProgramFactory make_chain(std::string name, std::vector<ChainPhase> phases,
                          int exit_code = 0);

}  // namespace mtr::exec
