// Physical frame allocator over a fixed-size RAM. Frames no one has used
// yet are handed out from a high-water counter, lowest id first; only
// released frames go on the LIFO free list. That is the order a free list
// prefilled with every frame in descending id order gives — released
// frames first, newest on top, then the never-used ones ascending — at a
// cost that follows the frames a run touches, not the RAM it models.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hpp"

namespace mtr::mm {

class FrameAllocator {
 public:
  explicit FrameAllocator(std::uint32_t total_frames);

  /// Allocates a free frame; nullopt when RAM is exhausted (caller evicts).
  std::optional<FrameId> allocate();

  /// Returns a frame to the free pool.
  void release(FrameId f);

  std::uint32_t total() const { return total_; }
  std::uint32_t used() const { return high_water_ - static_cast<std::uint32_t>(free_.size()); }
  std::uint32_t available() const { return total_ - used(); }
  /// Frames [0, high_water()) have been handed out at least once.
  std::uint32_t high_water() const { return high_water_; }

 private:
  std::uint32_t total_;
  std::uint32_t high_water_ = 0;
  std::vector<FrameId> free_;    // released frames, LIFO
  std::vector<bool> allocated_;  // guards double-release; grows with high_water_
};

}  // namespace mtr::mm
