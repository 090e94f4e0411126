// Global memory manager: owns physical frames and all address spaces,
// resolves page touches, and runs clock (second-chance) replacement under
// memory pressure. Major faults (swap-in) are reported to the kernel, which
// charges the handler CPU to the faulting process and blocks it on the disk
// — the accounting path exploited by the exception-flooding attack.
//
// Reclaim itself is synchronous by design: scans and evictions run inline
// in the faulting process's charge stream (direct-reclaim semantics), so
// the mm layer schedules nothing. The only asynchronous consequence of a
// fault is the swap-in disk completion, which the kernel submits through
// its own wrapper — under the event-driven engine that completion is a
// calendar-queue event, so no mm state needs to know which engine runs.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hpp"
#include "mm/address_space.hpp"
#include "mm/frame_allocator.hpp"

namespace mtr::mm {

enum class FaultKind : std::uint8_t {
  kNone,   // page was resident; reference bit refreshed
  kMinor,  // first touch (demand-zero) or reclaim without I/O
  kMajor,  // contents must be read back from swap
};

struct TouchResult {
  FaultKind fault = FaultKind::kNone;
  bool evicted_someone = false;  // replacement ran to satisfy this touch
  /// Frames the reclaimer had to free for this touch: the kernel charges
  /// the faulting process the direct-reclaim scan (Linux semantics — under
  /// memory pressure allocation cost lands on whoever allocates).
  std::uint32_t evictions = 0;
};

struct MemoryStats {
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t evictions = 0;
  std::uint64_t readahead_pages = 0;
};

class MemoryManager {
 public:
  /// `reclaim_batch`: when RAM is exhausted the reclaimer frees this many
  /// frames at once (kswapd-style batching) — pressure spreads across all
  /// address spaces instead of trickling one frame per fault.
  /// `swap_readahead`: a major fault clusters up to this many consecutive
  /// swapped pages into the single disk read.
  explicit MemoryManager(std::uint32_t total_frames,
                         std::uint32_t reclaim_batch = 64,
                         std::uint32_t swap_readahead = 8);

  MemoryManager(const MemoryManager&) = delete;
  MemoryManager& operator=(const MemoryManager&) = delete;

  /// Creates the address space for a new thread group.
  AddressSpace& create_space(Tgid owner);

  /// Tears down a thread group's space, releasing its frames and swap slots.
  /// O(pages the space mapped), independent of RAM size.
  void destroy_space(Tgid owner);

  bool has_space(Tgid owner) const { return slot(owner) != nullptr; }
  AddressSpace& space(Tgid owner);

  /// Resolves a touch of `page` by thread group `owner`. Runs replacement if
  /// RAM is full. The returned fault kind tells the kernel what to charge.
  TouchResult touch(Tgid owner, PageId page);

  const MemoryStats& stats(Tgid owner) const;
  MemoryStats global_stats() const { return global_; }
  std::uint32_t frames_total() const { return frames_.total(); }
  std::uint32_t frames_used() const { return frames_.used(); }
  std::uint64_t swap_used_pages() const { return swap_used_; }

  /// Cross-checks the frame table against every page table, O(frames ever
  /// handed out + pages); throws InvariantError on the first mismatch.
  /// Every in-use frame is the resident frame of its owner's page, the
  /// spaces' resident pages add up to the frames in use, and the swap count
  /// equals the swapped pages.
  void check_invariants() const;

 private:
  struct FrameInfo {
    PageId page{};
    Tgid owner;
    bool in_use = false;
  };

  /// A live thread group's space and its fault counters. Tgids are issued
  /// sequentially and never reused, so the slots are indexed by tgid.
  struct Slot {
    std::unique_ptr<AddressSpace> space;  // null: no live space
    MemoryStats stats;
  };

  /// The live slot of `owner`, or nullptr.
  const Slot* slot(Tgid owner) const;
  Slot& live_slot(Tgid owner);

  /// Evicts one resident page chosen by the clock hand; returns its frame.
  FrameId evict_one();

  /// Kswapd-style batch reclaim down to `reclaim_batch_` free frames.
  void reclaim_batch();

  /// Makes `page`, whose entry in `owner`'s space `sp` is `pe`, resident in
  /// `frame`.
  void install(AddressSpace& sp, PageEntry& pe, Tgid owner, PageId page, FrameId frame);

  FrameAllocator frames_;
  std::uint32_t reclaim_batch_target_;
  std::uint32_t swap_readahead_;
  std::vector<FrameInfo> frame_info_;  // grows with frames_.high_water()
  std::size_t clock_hand_ = 0;
  std::vector<Slot> spaces_;  // indexed by tgid
  MemoryStats global_;
  std::uint64_t swap_used_ = 0;
};

}  // namespace mtr::mm
