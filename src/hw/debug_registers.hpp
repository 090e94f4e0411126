// x86-style hardware debug registers, the mechanism behind the paper's
// execution-thrashing attack (§IV-B2): the tracer programs DR0 with a hot
// address in the victim and DR7 with the enable bits; every access raises a
// #DB exception that stops the victim.
#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/types.hpp"

namespace mtr::hw {

/// Per-process debug register file: DR0–DR3 hold linear addresses, DR7
/// carries the (simplified, local) enable bits.
class DebugRegisters {
 public:
  static constexpr int kSlots = 4;

  /// Programs slot `i` (0..3) with address `a` and sets its DR7 enable bit.
  void arm(int slot, VAddr a);

  /// Clears all slots.
  void reset();

  bool armed(int slot) const;
  bool any_armed() const { return dr7_ != 0; }
  VAddr address(int slot) const;
  std::uint8_t dr7() const { return dr7_; }

  /// Returns the lowest armed slot watching address `a`, if any.
  std::optional<int> match(VAddr a) const;

 private:
  std::array<VAddr, kSlots> dr_{};
  std::uint8_t dr7_ = 0;
};

}  // namespace mtr::hw
