// The §IV attack roster with the paper's parameters, shared by the figure,
// table and ablation sweeps so no two reproductions can disagree about what
// each attack is.
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "attacks/flooding_attacks.hpp"
#include "attacks/launch_attacks.hpp"
#include "attacks/scheduling_attack.hpp"
#include "attacks/thrashing_attack.hpp"
#include "common/ensure.hpp"
#include "core/batch_runner.hpp"

namespace mtr::bench {

/// The paper's launch-attack payload: ~34 s (~2^34 iterations) of looping,
/// scaled with the workloads.
inline constexpr double kLaunchPayloadSeconds = 34.0;
/// Interposition payload per wrapped malloc/sqrt call (~2 ms).
inline constexpr Cycles kInterpositionPerCall{5'000'000};
/// Interrupt-flood junk stream rate (packets/s).
inline constexpr double kFloodPacketsPerSecond = 60'000.0;

/// The Fork attacker of the scheduling attack (shared with the Fig. 7/8
/// nice sweeps, which vary `nice`).
inline attacks::SchedulingAttackParams fork_params(double scale, int nice) {
  attacks::SchedulingAttackParams p;
  p.nice = Nice{static_cast<std::int8_t>(nice)};
  p.total_forks = static_cast<std::uint64_t>(150'000 * scale);
  return p;
}

/// One attack plus the qualitative attributes of the §V-C comparison.
struct RosterEntry {
  const char* label;
  core::AttackFactory make;
  const char* vulnerability;
  const char* target;
  const char* privilege;
  const char* side_effects;
};

/// All seven attacks in paper order.
inline std::vector<RosterEntry> attack_roster(double scale) {
  using namespace mtr::attacks;
  return {
      {"shell",
       [scale] {
         return std::make_unique<ShellAttack>(
             seconds_to_cycles(kLaunchPayloadSeconds * scale, CpuHz{}));
       },
       "alien code in PT (launch window)", "utime", "shell admin",
       "all programs from the attacked shell"},
      {"library-ctor",
       [scale] {
         return std::make_unique<LibraryCtorAttack>(
             seconds_to_cycles(kLaunchPayloadSeconds * scale, CpuHz{}));
       },
       "alien code in PT (ld ctor)", "utime", "env/library admin",
       "all programs loading the library"},
      {"library-interposition",
       [] {
         return std::make_unique<LibraryInterpositionAttack>(kInterpositionPerCall);
       },
       "alien code in PT (symbol interposition)", "utime",
       "env/library admin", "all callers of the symbols"},
      {"scheduling",
       [scale] {
         return std::make_unique<SchedulingAttack>(fork_params(scale, -20));
       },
       "tick-granularity miscount", "utime (miscounted)", "root (renice)",
       "none visible to the victim"},
      {"thrashing", [] { return std::make_unique<ThrashingAttack>(); },
       "unsolicited trace stops", "stime", "ptrace (LSM-gated)",
       "least: targets exactly PT"},
      {"interrupt-flood",
       [] { return std::make_unique<InterruptFloodAttack>(kFloodPacketsPerSecond); },
       "handler billed to current", "stime", "network access",
       "whole system (DoS-like)"},
      {"exception-flood",
       [] {
         ExceptionFloodParams flood;
         flood.hog_pages = 24 * 1024;
         return std::make_unique<ExceptionFloodAttack>(flood);
       },
       "fault handling billed to victim", "stime + wall", "none (any user)",
       "whole system (memory DoS)"},
  };
}

/// The grid of the §V-C and §VI-B tables: Whetstone at `scale`, the
/// baseline (no attack) first, then every roster attack in paper order.
inline core::BatchGrid roster_grid(double scale) {
  core::BatchGrid grid;
  grid.base.kind = workloads::WorkloadKind::kWhetstone;
  grid.base.workload.scale = scale;
  grid.attacks.push_back({"baseline", nullptr});
  for (RosterEntry& e : attack_roster(scale))
    grid.attacks.push_back({e.label, std::move(e.make)});
  return grid;
}

/// The roster factory for `label` (used by the figure sweeps so figures
/// and tables measure the identical attack). Throws on an unknown label.
inline core::AttackFactory roster_attack(double scale, std::string_view label) {
  for (RosterEntry& e : attack_roster(scale))
    if (label == e.label) return std::move(e.make);
  MTR_ENSURE_MSG(false, "no roster attack named " << label);
  return nullptr;  // unreachable
}

}  // namespace mtr::bench
