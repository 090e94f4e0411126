// §IV-B2 / Fig. 9 — the execution-thrashing attack.
//
// The attacker ptrace()-attaches to PT, programs hardware debug registers
// (DR0/DR7) with the address of a frequently accessed variable, and resumes
// PT. Every access raises a #DB exception: PT trace-stops, the tracer wakes
// from wait(), and immediately continues it. Each round trip costs PT
// kernel work (exception dispatch, SIGTRAP delivery, context switches) that
// jiffy accounting books to PT's system time.
//
// For multi-threaded victims (Brute) one tracer is spawned per worker
// thread, since breakpoints and trace stops are per-thread state.
#pragma once

#include "attacks/attack.hpp"

namespace mtr::attacks {

struct ThrashingAttackParams {
  /// Whether the tracer holds the privilege the LSM policy may require.
  bool privileged = true;
};

class ThrashingAttack final : public Attack {
 public:
  explicit ThrashingAttack(ThrashingAttackParams params = {}) : params_(params) {}

  std::string name() const override { return "thrashing"; }
  std::string phase() const override { return "runtime"; }

  void engage(AttackContext& ctx) override;
  void disengage(AttackContext& ctx) override;

 private:
  ThrashingAttackParams params_;
};

}  // namespace mtr::attacks
