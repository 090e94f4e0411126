// §IV-B1 / Figs. 7–8 — the process-scheduling attack.
//
// Jiffy accounting charges a whole tick to whoever is current at the timer
// interrupt. The attacker ("Fork") therefore runs short bursts of work that
// relinquish the CPU before the next tick: each burst is a fork()/wait()
// cycle whose child exits immediately (the paper's concrete loop), followed
// by the deliberate mid-jiffy CPU relinquish of Fig. 3. The victim resumes,
// is current when the tick fires, and absorbs the attacker's fractional
// jiffies. The attacker elevates its own priority (needs root) so each
// wakeup preempts the victim immediately.
//
// `total_forks` bounds the attack (the paper forks 2^21 children); when the
// victim exits first, disengage() kills the attacker.
#pragma once

#include "attacks/attack.hpp"

namespace mtr::attacks {

struct SchedulingAttackParams {
  /// Attacker nice value; the paper sweeps {0, -5, -10, -15, -20}.
  Nice nice{0};
  /// Total fork() calls before the attacker exits on its own (2^21 in the
  /// paper; scaled like the workloads).
  std::uint64_t total_forks = 150'000;
  /// Whether the attacker holds root (raising priority requires it).
  bool privileged = true;
};

class SchedulingAttack final : public Attack {
 public:
  explicit SchedulingAttack(SchedulingAttackParams params) : params_(params) {}

  std::string name() const override { return "scheduling"; }
  std::string phase() const override { return "runtime"; }

  void engage(AttackContext& ctx) override;
  void disengage(AttackContext& ctx) override;

  /// Spawns the standalone Fork program (for the paper's "no attack"
  /// baseline bars, where Fork runs by itself). Returns its pid.
  static Pid spawn_standalone(sim::Simulation& sim, const SchedulingAttackParams& p);

  Pid attacker_pid() const { return attacker_; }

 private:
  SchedulingAttackParams params_;
  Pid attacker_;
};

}  // namespace mtr::attacks
