#include "hw/debug_registers.hpp"

#include "common/ensure.hpp"

namespace mtr::hw {

void DebugRegisters::arm(int slot, VAddr a) {
  MTR_ENSURE(slot >= 0 && slot < kSlots);
  dr_[static_cast<std::size_t>(slot)] = a;
  dr7_ |= static_cast<std::uint8_t>(1u << slot);
}

void DebugRegisters::reset() { dr7_ = 0; }

bool DebugRegisters::armed(int slot) const {
  MTR_ENSURE(slot >= 0 && slot < kSlots);
  return (dr7_ & (1u << slot)) != 0;
}

VAddr DebugRegisters::address(int slot) const {
  MTR_ENSURE(slot >= 0 && slot < kSlots);
  return dr_[static_cast<std::size_t>(slot)];
}

std::optional<int> DebugRegisters::match(VAddr a) const {
  for (int slot = 0; slot < kSlots; ++slot) {
    if (armed(slot) && dr_[static_cast<std::size_t>(slot)] == a) return slot;
  }
  return std::nullopt;
}

}  // namespace mtr::hw
