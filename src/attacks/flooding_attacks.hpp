// §IV-B3 / Fig. 10 — interrupt flooding — and §IV-B4 / Fig. 11 — exception
// (page-fault) flooding.
#pragma once

#include "attacks/attack.hpp"

namespace mtr::attacks {

/// Junk IP packets sprayed from "another PC": a Poisson interrupt source on
/// the NIC. None of the victims use the network, so the only effect is the
/// handler time billed to whatever process is current — mostly PT, since a
/// utility-computing job has the platform to itself.
class InterruptFloodAttack final : public Attack {
 public:
  explicit InterruptFloodAttack(double packets_per_second)
      : rate_(packets_per_second) {}

  std::string name() const override { return "interrupt-flood"; }
  std::string phase() const override { return "runtime"; }

  void engage(AttackContext& ctx) override;
  void disengage(AttackContext& ctx) override;

 private:
  double rate_;
};

/// Tuning of the memory hog (defined at namespace scope — GCC rejects a
/// nested aggregate with default member initializers as a default argument).
struct ExceptionFloodParams {
  /// Pages the hog maps; the default (1.5× of the default 16k-frame RAM)
  /// mirrors the paper's "more than 2 GiB on a smaller-RAM machine".
  std::uint64_t hog_pages = 24 * 1024;
};

/// A memory hog that maps more pages than the machine has RAM and cycles
/// through them, evicting the victim's working set. Every victim touch of
/// an evicted page becomes a major fault: handler CPU billed to the victim,
/// plus a swap-in on the disk.
class ExceptionFloodAttack final : public Attack {
 public:
  using Params = ExceptionFloodParams;

  explicit ExceptionFloodAttack(Params params = {}) : params_(params) {}

  std::string name() const override { return "exception-flood"; }
  std::string phase() const override { return "runtime"; }

  void engage(AttackContext& ctx) override;
  void disengage(AttackContext& ctx) override;

 private:
  Params params_;
  Pid hog_;
};

}  // namespace mtr::attacks
