// Per-thread-group virtual address space: a sparse page table mapping
// virtual pages to frames, with residency/reference/swap state per page.
#pragma once

#include <cstdint>
#include <unordered_map>

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
  /// entry on first sight (demand-zero semantics).
  PageEntry& entry(PageId page) { return pages_[page]; }

  /// Returns the entry if the page has ever been seen, else nullptr.
  const PageEntry* find(PageId page) const;
  PageEntry* find(PageId page);

  std::uint64_t resident_pages() const { return resident_; }

  /// Full page table, for teardown and diagnostics.
  const std::unordered_map<PageId, PageEntry>& pages() const { return pages_; }

  /// Residency bookkeeping — called by MemoryManager only.
  void note_made_resident() { ++resident_; }
  void note_made_nonresident();

 private:
  Tgid owner_;
  std::unordered_map<PageId, PageEntry> pages_;
  std::uint64_t resident_ = 0;
};

}  // namespace mtr::mm
