#include "mm/frame_allocator.hpp"

#include "common/ensure.hpp"

namespace mtr::mm {

FrameAllocator::FrameAllocator(std::uint32_t total_frames) : total_(total_frames) {
  MTR_ENSURE_MSG(total_frames > 0, "machine needs at least one RAM frame");
}

std::optional<FrameId> FrameAllocator::allocate() {
  if (!free_.empty()) {
    const FrameId f = free_.back();
    free_.pop_back();
    allocated_[f.v] = true;
    return f;
  }
  if (high_water_ == total_) return std::nullopt;
  allocated_.push_back(true);
  return FrameId{high_water_++};
}

void FrameAllocator::release(FrameId f) {
  MTR_ENSURE_MSG(f.v < total_, "frame id out of range");
  MTR_ENSURE_MSG(f.v < high_water_ && allocated_[f.v], "double release of frame");
  allocated_[f.v] = false;
  free_.push_back(f);
}

}  // namespace mtr::mm
