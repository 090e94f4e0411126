#include "attacks/flooding_attacks.hpp"

#include <memory>

#include "exec/program_base.hpp"

namespace mtr::attacks {

void InterruptFloodAttack::engage(AttackContext& ctx) {
  // Through the kernel, not the device: the event-driven engine needs the
  // first arrival in its calendar queue.
  ctx.sim.kernel().start_nic_flood(rate_);
}

void InterruptFloodAttack::disengage(AttackContext& ctx) {
  ctx.sim.kernel().stop_nic_flood();
}

namespace {

/// Cycle gap between hog page touches (its write/read loop speed).
constexpr Cycles kHogTouchPeriod{20'000};

/// The hog: mmap a huge region, then continuously write and re-read it so
/// the kernel must keep (re)allocating frames.
exec::ProgramFactory make_hog(ExceptionFloodAttack::Params params) {
  struct State {
    bool mapped = false;
  };
  auto state = std::make_shared<State>();

  // Hog heap placed far above workload data (workloads use pages < 0x1000).
  const kernel::MemoryProfile profile{PageId{0x100'000}, params.hog_pages,
                                      kHogTouchPeriod, {}};

  return exec::make_generator(
      "memhog",
      [state, params, profile](
          kernel::ProcessContext&) -> std::optional<kernel::Step> {
        if (!state->mapped) {
          state->mapped = true;
          return exec::syscall(kernel::SysMmap{params.hog_pages});
        }
        // One second of scan work per step; runs until killed.
        return exec::compute_mem(Cycles{2'530'000'000}, profile, "memhog.scan");
      });
}

}  // namespace

void ExceptionFloodAttack::engage(AttackContext& ctx) {
  kernel::SpawnSpec spec;
  spec.name = "memhog";
  spec.program = make_hog(params_);
  hog_ = ctx.sim.spawn(std::move(spec));
  attacker_pids_.push_back(hog_);
}

void ExceptionFloodAttack::disengage(AttackContext& ctx) {
  if (hog_.valid()) ctx.sim.kernel().force_kill(hog_);
}

}  // namespace mtr::attacks
