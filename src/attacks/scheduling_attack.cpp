#include "attacks/scheduling_attack.hpp"

#include <memory>

#include "common/ensure.hpp"
#include "exec/program_base.hpp"

namespace mtr::attacks {

namespace {

/// fork/wait/exit cycles per burst before relinquishing the CPU.
constexpr unsigned kIterationsPerBurst = 12;
/// Mid-jiffy relinquish: sleep this fraction of a tick between bursts.
constexpr double kSleepFractionOfTick = 0.95;

/// The "Fork" program: bursts of fork/wait with no-op children, then a
/// mid-jiffy CPU relinquish, repeated until `total_forks` is reached.
exec::ProgramFactory make_fork_program(const SchedulingAttackParams& params,
                                       Cycles tick) {
  const auto sleep_cycles = Cycles{static_cast<std::uint64_t>(
      kSleepFractionOfTick * static_cast<double>(tick.v))};
  MTR_ENSURE_MSG(sleep_cycles.v > 0, "scheduling attack needs a nonzero sleep");

  struct State {
    std::uint64_t forks_done = 0;
    unsigned in_burst = 0;
    // fork → wait → (burst boundary: sleep) → fork → …
    enum { kFork, kWait, kSleep } next = kFork;
  };
  auto state = std::make_shared<State>();
  const std::uint64_t total = params.total_forks;

  return exec::make_generator(
      "fork-storm",
      [state, total, sleep_cycles](
          kernel::ProcessContext&) -> std::optional<kernel::Step> {
        switch (state->next) {
          case State::kFork: {
            if (state->forks_done >= total) return std::nullopt;
            ++state->forks_done;
            ++state->in_burst;
            state->next = State::kWait;
            // The child performs no operation but exits.
            return exec::syscall(kernel::SysFork{
                exec::make_step_list("noop-child", {})});
          }
          case State::kWait: {
            state->next = (state->in_burst >= kIterationsPerBurst) ? State::kSleep
                                                                   : State::kFork;
            return exec::syscall(kernel::SysWait{});
          }
          case State::kSleep: {
            state->in_burst = 0;
            state->next = State::kFork;
            return exec::syscall(kernel::SysNanosleep{sleep_cycles});
          }
        }
        return std::nullopt;
      });
}

Pid spawn_fork_program(sim::Simulation& sim, const SchedulingAttackParams& params) {
  kernel::SpawnSpec spec;
  spec.name = "Fork";
  spec.program = make_fork_program(params, sim.tick());
  spec.nice = Nice{0};  // renices itself below, mirroring the real attack
  spec.privileged = params.privileged;
  const Pid pid = sim.spawn(std::move(spec));
  // The attack program elevates its own priority first thing; without root
  // the setpriority() fails (EPERM) and the attack runs at nice 0 — the
  // paper's privilege caveat in §V-C. Folded into launch for determinism.
  if (params.privileged || params.nice.v >= 0) {
    sim.kernel().set_nice(pid, params.nice);
  }
  return pid;
}

}  // namespace

void SchedulingAttack::engage(AttackContext& ctx) {
  attacker_ = spawn_fork_program(ctx.sim, params_);
  attacker_pids_.push_back(attacker_);
}

void SchedulingAttack::disengage(AttackContext& ctx) {
  if (attacker_.valid()) ctx.sim.kernel().force_kill(attacker_);
}

Pid SchedulingAttack::spawn_standalone(sim::Simulation& sim,
                                       const SchedulingAttackParams& p) {
  return spawn_fork_program(sim, p);
}

}  // namespace mtr::attacks
