#include "mm/memory_manager.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace mtr::mm {

MemoryManager::MemoryManager(std::uint32_t total_frames, std::uint32_t reclaim_batch,
                             std::uint32_t swap_readahead)
    : frames_(total_frames),
      reclaim_batch_target_(std::max<std::uint32_t>(1, reclaim_batch)),
      swap_readahead_(std::max<std::uint32_t>(1, swap_readahead)) {}

const MemoryManager::Slot* MemoryManager::slot(Tgid owner) const {
  const auto i = static_cast<std::size_t>(owner.v);
  if (!owner.valid() || i >= spaces_.size() || spaces_[i].space == nullptr) return nullptr;
  return &spaces_[i];
}

MemoryManager::Slot& MemoryManager::live_slot(Tgid owner) {
  MTR_ENSURE_MSG(has_space(owner), "unknown address space " << owner.v);
  return spaces_[static_cast<std::size_t>(owner.v)];
}

AddressSpace& MemoryManager::create_space(Tgid owner) {
  MTR_ENSURE_MSG(owner.valid(), "address space needs a valid tgid, got " << owner.v);
  MTR_ENSURE_MSG(!has_space(owner), "address space already exists for " << owner.v);
  const auto i = static_cast<std::size_t>(owner.v);
  if (i >= spaces_.size()) spaces_.resize(i + 1);
  spaces_[i] = {std::make_unique<AddressSpace>(owner), MemoryStats{}};
  return *spaces_[i].space;
}

void MemoryManager::destroy_space(Tgid owner) {
  const Slot* s = slot(owner);
  MTR_ENSURE_MSG(s != nullptr, "destroying unknown address space " << owner.v);
  const AddressSpace& sp = *s->space;
  // Walk the dying space's page table, not all of RAM: teardown costs what
  // the space mapped. Resident frames are released in ascending id order —
  // the order a scan over frame_info_ would meet them — so the LIFO free
  // list, and every later allocation, does not depend on the page table's
  // layout. Swap slots held by pages that died swapped out are given back
  // on the way.
  std::vector<FrameId> resident;
  resident.reserve(sp.resident_pages());
  sp.for_each_page([&](PageId page, const PageEntry& pe) {
    if (pe.resident) {
      MTR_ENSURE_MSG(pe.frame.v < frame_info_.size() && frame_info_[pe.frame.v].in_use &&
                         frame_info_[pe.frame.v].owner == owner &&
                         frame_info_[pe.frame.v].page == page,
                     "frame " << pe.frame.v << " not owned by dying space " << owner.v);
      resident.push_back(pe.frame);
    }
    if (pe.in_swap) {
      MTR_ENSURE(swap_used_ > 0);
      --swap_used_;
    }
  });
  MTR_ENSURE(resident.size() == sp.resident_pages());
  std::sort(resident.begin(), resident.end());
  for (const FrameId f : resident) {
    frame_info_[f.v].in_use = false;
    frames_.release(f);
  }
  spaces_[static_cast<std::size_t>(owner.v)] = {};
}

void MemoryManager::check_invariants() const {
  std::uint64_t in_use = 0;
  for (std::size_t f = 0; f < frame_info_.size(); ++f) {
    const FrameInfo& fi = frame_info_[f];
    if (!fi.in_use) continue;
    ++in_use;
    const Slot* s = slot(fi.owner);
    MTR_ENSURE_MSG(s != nullptr, "frame " << f << " owned by dead space " << fi.owner.v);
    const PageEntry* pe = s->space->find(fi.page);
    MTR_ENSURE_MSG(pe != nullptr && pe->resident && pe->frame.v == f,
                   "frame " << f << " is not the resident frame of page "
                            << fi.page.v << " in space " << fi.owner.v);
  }
  MTR_ENSURE_MSG(in_use == frames_used(),
                 in_use << " frames in use, allocator says " << frames_used());

  std::uint64_t resident = 0;
  std::uint64_t swapped = 0;
  for (const Slot& s : spaces_) {
    if (s.space == nullptr) continue;
    resident += s.space->resident_pages();
    s.space->for_each_page(
        [&](PageId, const PageEntry& pe) { swapped += pe.in_swap ? 1 : 0; });
  }
  MTR_ENSURE_MSG(resident == frames_used(),
                 "spaces hold " << resident << " resident pages, " << frames_used()
                                << " frames in use");
  MTR_ENSURE_MSG(swapped == swap_used_,
                 swapped << " pages in swap, swap_used_ is " << swap_used_);
}

AddressSpace& MemoryManager::space(Tgid owner) { return *live_slot(owner).space; }

void MemoryManager::install(AddressSpace& sp, PageEntry& pe, Tgid owner, PageId page,
                            FrameId frame) {
  MTR_ENSURE(!pe.resident);
  if (pe.in_swap) {
    pe.in_swap = false;
    MTR_ENSURE(swap_used_ > 0);
    --swap_used_;
  }
  pe.frame = frame;
  pe.resident = true;
  pe.referenced = true;
  sp.note_made_resident();
  if (frame.v >= frame_info_.size()) frame_info_.resize(frames_.high_water());
  frame_info_[frame.v] = {page, owner, true};
}

TouchResult MemoryManager::touch(Tgid owner, PageId page) {
  Slot& s = live_slot(owner);
  AddressSpace& sp = *s.space;
  PageEntry& pe = sp.entry(page);

  if (pe.resident) {
    pe.referenced = true;
    return {FaultKind::kNone, false};
  }

  // Fault path: find a frame; under pressure the reclaimer frees a batch.
  TouchResult result;
  auto frame = frames_.allocate();
  if (!frame) {
    const std::uint64_t before = global_.evictions;
    reclaim_batch();
    result.evicted_someone = true;
    result.evictions = static_cast<std::uint32_t>(global_.evictions - before);
    frame = frames_.allocate();
    MTR_ENSURE(frame.has_value());
  }

  MemoryStats& stats = s.stats;
  const bool was_swapped = pe.in_swap;
  install(sp, pe, owner, page, *frame);
  if (was_swapped) {
    result.fault = FaultKind::kMajor;
    ++stats.major_faults;
    ++global_.major_faults;
    // Swap readahead: the single disk read clusters the next consecutive
    // swapped-out pages of this space.
    for (std::uint32_t k = 1; k < swap_readahead_; ++k) {
      PageEntry* next = sp.find(PageId{page.v + k});
      if (next == nullptr || !next->in_swap || next->resident) break;
      auto extra = frames_.allocate();
      if (!extra) break;  // no spare frames: stop the cluster, no reclaim
      install(sp, *next, owner, PageId{page.v + k}, *extra);
      ++stats.readahead_pages;
      ++global_.readahead_pages;
    }
  } else {
    result.fault = FaultKind::kMinor;  // demand-zero first touch
    ++stats.minor_faults;
    ++global_.minor_faults;
  }
  return result;
}

void MemoryManager::reclaim_batch() {
  // The allocator only runs dry once every frame has been handed out, so
  // the clock below always walks a frame table that covers all of RAM.
  MTR_ENSURE(frame_info_.size() == frames_.total());
  const std::uint32_t target =
      std::min<std::uint32_t>(reclaim_batch_target_, frames_.total() / 2 + 1);
  while (frames_.available() < target) {
    const FrameId f = evict_one();
    frames_.release(f);
  }
}

FrameId MemoryManager::evict_one() {
  // Clock / second chance: sweep frames, clearing reference bits, until an
  // unreferenced resident page is found. Two full sweeps guarantee progress.
  for (std::size_t step = 0; step < 2 * frame_info_.size() + 1; ++step) {
    FrameInfo& fi = frame_info_[clock_hand_];
    const std::size_t hand = clock_hand_;
    clock_hand_ = (clock_hand_ + 1) % frame_info_.size();
    if (!fi.in_use) continue;

    Slot& s = live_slot(fi.owner);
    PageEntry* pe = s.space->find(fi.page);
    MTR_ENSURE(pe != nullptr && pe->resident && pe->frame.v == hand);

    if (pe->referenced) {
      pe->referenced = false;  // second chance
      continue;
    }

    // Victim found: page out.
    pe->resident = false;
    pe->in_swap = true;
    ++swap_used_;
    s.space->note_made_nonresident();
    ++s.stats.evictions;
    ++global_.evictions;
    fi.in_use = false;
    return FrameId{static_cast<std::uint32_t>(hand)};
  }
  throw InvariantError("clock replacement failed to find a victim");
}

const MemoryStats& MemoryManager::stats(Tgid owner) const {
  const Slot* s = slot(owner);
  MTR_ENSURE_MSG(s != nullptr, "no memory stats for " << owner.v);
  return s->stats;
}

}  // namespace mtr::mm
