#include "exec/program_base.hpp"

#include "common/ensure.hpp"

namespace mtr::exec {

Step compute(Cycles cycles, std::string tag) {
  return ComputeStep{cycles, MemoryProfile{}, std::move(tag)};
}

Step compute_mem(Cycles cycles, MemoryProfile mem, std::string tag) {
  return ComputeStep{cycles, mem, std::move(tag)};
}

Step exit_step(int code) { return ExitStep{code}; }

// --- QueueProgram -----------------------------------------------------------

Step QueueProgram::next(ProcessContext& ctx) {
  if (pending_.empty() && !done_) {
    const std::size_t before = pending_.size();
    if (!generate(ctx)) {
      done_ = true;
    } else {
      MTR_ENSURE_MSG(pending_.size() > before,
                     "QueueProgram::generate returned true without pushing steps");
    }
  }
  if (pending_.empty()) return ExitStep{0};
  Step s = std::move(pending_.front());
  pending_.pop_front();
  return s;
}

void QueueProgram::push_all(const std::vector<Step>& steps) {
  pending_.insert(pending_.end(), steps.begin(), steps.end());
}

// --- GeneratorProgram ---------------------------------------------------------

GeneratorProgram::GeneratorProgram(std::string name, Generator gen)
    : name_(std::move(name)), gen_(std::move(gen)) {
  MTR_ENSURE_MSG(gen_ != nullptr, "GeneratorProgram needs a generator");
}

Step GeneratorProgram::next(ProcessContext& ctx) {
  if (!done_) {
    if (auto s = gen_(ctx)) return std::move(*s);
    done_ = true;
  }
  return ExitStep{0};
}

// --- ChainProgram --------------------------------------------------------------

ChainProgram::ChainProgram(std::string name, std::vector<ChainPhase> phases,
                           int exit_code)
    : name_(std::move(name)), phases_(std::move(phases)), exit_code_(exit_code) {}

bool ChainProgram::advance_phase() {
  ++phase_;
  step_in_phase_ = 0;
  inner_.reset();
  return phase_ < phases_.size();
}

Step ChainProgram::next(ProcessContext& ctx) {
  while (!exited_ && phase_ < phases_.size()) {
    ChainPhase& ph = phases_[phase_];
    if (auto* steps = std::get_if<std::vector<Step>>(&ph)) {
      if (step_in_phase_ < steps->size()) {
        // This instance owns its phase copy, so each step moves out once.
        Step s = std::move((*steps)[step_in_phase_++]);
        // A literal ExitStep inside a phase terminates the whole chain.
        if (std::holds_alternative<ExitStep>(s)) exited_ = true;
        return s;
      }
      advance_phase();
      continue;
    }
    auto& factory = std::get<ProgramFactory>(ph);
    if (!inner_) {
      MTR_ENSURE_MSG(factory != nullptr, "null program factory in chain phase");
      inner_ = factory();
    }
    Step s = inner_->next(ctx);
    if (std::holds_alternative<ExitStep>(s)) {
      // Swallow the sub-program's exit: the chain continues (destructors
      // still run after main returns).
      advance_phase();
      continue;
    }
    return s;
  }
  exited_ = true;
  return ExitStep{exit_code_};
}

// --- factories ------------------------------------------------------------------

ProgramFactory make_step_list(std::string name, std::vector<Step> steps,
                              int exit_code) {
  return make_chain(std::move(name), {ChainPhase{std::move(steps)}}, exit_code);
}

ProgramFactory make_generator(std::string name, GeneratorProgram::Generator gen) {
  return [name = std::move(name), gen = std::move(gen)]() {
    return std::make_unique<GeneratorProgram>(name, gen);
  };
}

ProgramFactory make_chain(std::string name, std::vector<ChainPhase> phases,
                          int exit_code) {
  return [name = std::move(name), phases = std::move(phases), exit_code]() {
    return std::make_unique<ChainProgram>(name, phases, exit_code);
  };
}

}  // namespace mtr::exec
