// Per-thread-group virtual address space: a page table mapping virtual
// pages to frames, with residency/reference/swap state per page. The table
// is a sorted vector of dense blocks of kBlockPages entries: the page ids a
// program uses come in a few dense runs (code and data profiles, buffers, a
// hog's sweep), so a block covers a run's neighbourhood and a lookup is a
// last-block check or a binary search over few blocks, with no hashing. A
// never-touched page inside a block reads as a default entry —
// non-resident and not swapped, exactly like a page never seen.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace mtr::mm {

struct PageEntry {
  FrameId frame{};       // valid only when resident
  bool resident = false;
  bool referenced = false;  // clock-algorithm reference bit
  bool in_swap = false;     // contents live on the swap device
};

class AddressSpace {
 public:
  explicit AddressSpace(Tgid owner) : owner_(owner) {}

  Tgid owner() const { return owner_; }

  /// Returns the entry for `page`, creating a non-resident, never-touched
  /// entry on first sight (demand-zero semantics). The reference stays
  /// valid until the next call that creates an entry.
  PageEntry& entry(PageId page);

  /// Returns the entry if the page's block exists, else nullptr. An entry
  /// in an existing block that was never touched is a default entry.
  const PageEntry* find(PageId page) const;
  PageEntry* find(PageId page);

  std::uint64_t resident_pages() const { return resident_; }

  /// Calls `fn(PageId, const PageEntry&)` for every entry of every block,
  /// in ascending page order — for teardown and diagnostics. Entries never
  /// touched come out as default entries.
  template <typename Fn>
  void for_each_page(Fn&& fn) const {
    for (const Block& b : blocks_)
      for (std::uint64_t i = 0; i < kBlockPages; ++i)
        fn(PageId{b.index * kBlockPages + i}, b.pages[i]);
  }

  /// Residency bookkeeping — called by MemoryManager only.
  void note_made_resident() { ++resident_; }
  void note_made_nonresident();

 private:
  static constexpr std::uint64_t kBlockPages = 64;

  struct Block {
    std::uint64_t index = 0;  // page id / kBlockPages
    std::array<PageEntry, kBlockPages> pages{};
  };

  /// Position of the block with `index`, or of the first block after it.
  std::size_t position(std::uint64_t index) const;

  Tgid owner_;
  std::vector<Block> blocks_;  // ascending index
  mutable std::size_t last_ = 0;  // block of the latest lookup
  std::uint64_t resident_ = 0;
};

}  // namespace mtr::mm
