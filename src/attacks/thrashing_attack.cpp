#include "attacks/thrashing_attack.hpp"

#include <memory>

#include "exec/program_base.hpp"

namespace mtr::attacks {

namespace {

/// How long engage() may step the simulation waiting for victim threads to
/// appear, in ticks.
constexpr unsigned kThreadDiscoveryTicks = 64;

/// One tracer: attach → wait → program DR0 → cont → {wait, cont}* → exit.
exec::ProgramFactory make_tracer(Pid target, VAddr breakpoint) {
  struct State {
    enum { kAttach, kFirstWait, kPoke, kCont, kWaitLoop, kContLoop } next = kAttach;
  };
  auto state = std::make_shared<State>();

  return exec::make_generator(
      "thrasher",
      [state, target, breakpoint](
          kernel::ProcessContext& ctx) -> std::optional<kernel::Step> {
        using kernel::PtraceOp;
        using kernel::SysPtrace;
        using kernel::SysWait;
        switch (state->next) {
          case State::kAttach:
            state->next = State::kFirstWait;
            return exec::syscall(SysPtrace{PtraceOp::kAttach, target});
          case State::kFirstWait:
            if (ctx.last_result() < 0) return std::nullopt;  // attach denied
            state->next = State::kPoke;
            return exec::syscall(SysWait{});
          case State::kPoke:
            state->next = State::kCont;
            return exec::syscall(
                SysPtrace{PtraceOp::kPokeUser, target, /*slot=*/0, breakpoint});
          case State::kCont:
          case State::kContLoop:
            if (ctx.last_result() < 0) return std::nullopt;  // tracee gone
            state->next = State::kWaitLoop;
            return exec::syscall(SysPtrace{PtraceOp::kCont, target});
          case State::kWaitLoop:
            if (ctx.last_result() < 0) return std::nullopt;
            state->next = State::kContLoop;
            return exec::syscall(SysWait{});
        }
        return std::nullopt;
      });
}

}  // namespace

void ThrashingAttack::engage(AttackContext& ctx) {
  sim::Simulation& sim = ctx.sim;

  // For multi-threaded victims, give the workers a moment to spawn, then
  // trace every thread in the group.
  const Cycles deadline = sim.kernel().now() + sim.tick() * kThreadDiscoveryTicks;
  std::size_t count = sim.group_members(ctx.victim_tgid).size();
  while (sim.kernel().now() < deadline) {
    sim.run_for(sim.tick());
    const std::size_t now_count = sim.group_members(ctx.victim_tgid).size();
    if (now_count == count && now_count > 0) break;  // membership settled
    count = now_count;
  }
  std::vector<Pid> targets = sim.group_members(ctx.victim_tgid);
  if (targets.empty()) targets = {ctx.victim_pid};

  for (const Pid target : targets) {
    kernel::SpawnSpec spec;
    spec.name = "thrasher";
    spec.program = make_tracer(target, ctx.victim_hot_addr);
    spec.nice = Nice{0};
    spec.privileged = params_.privileged;
    attacker_pids_.push_back(sim.spawn(std::move(spec)));
  }
}

void ThrashingAttack::disengage(AttackContext& ctx) {
  for (const Pid pid : attacker_pids_) ctx.sim.kernel().force_kill(pid);
}

}  // namespace mtr::attacks
