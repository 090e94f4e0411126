// Hardware-device and memory-management substrate tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "hw/debug_registers.hpp"
#include "hw/disk.hpp"
#include "hw/nic.hpp"
#include "hw/timer.hpp"
#include "mm/memory_manager.hpp"

// --- counting allocator hook -------------------------------------------------------
//
// TU-local replacement of the global allocation functions so the suite can
// assert what the mm layer allocates: bytes that follow the pages a run
// touches, never the RAM it models. The counter only ever increases; tests
// snapshot it around the code under scrutiny.

namespace {
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t n) {
  g_alloc_bytes += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mtr {
namespace {

// --- timer -------------------------------------------------------------------

TEST(Timer, PeriodFromHz) {
  hw::TimerDevice t(CpuHz{2'530'000'000}, TimerHz{250});
  EXPECT_EQ(t.period().v, 10'120'000u);
  EXPECT_EQ(t.next_fire().v, 10'120'000u);
}

TEST(Timer, PeriodicGridSurvivesLateAck) {
  hw::TimerDevice t(CpuHz{1'000'000}, TimerHz{100});  // period 10'000
  t.acknowledge(Cycles{10'000});
  EXPECT_EQ(t.next_fire().v, 20'000u);
  // Late dispatch: the grid stays periodic, no tick lost.
  t.acknowledge(Cycles{23'000});
  EXPECT_EQ(t.next_fire().v, 30'000u);
  EXPECT_EQ(t.ticks_fired(), 2u);
}

TEST(Timer, EarlyAckRejected) {
  hw::TimerDevice t(CpuHz{1'000'000}, TimerHz{100});
  EXPECT_THROW(t.acknowledge(Cycles{5'000}), InvariantError);
}

// --- NIC ------------------------------------------------------------------------

TEST(Nic, NoArrivalsUntilFlood) {
  hw::NicModel nic(CpuHz{1'000'000'000});
  EXPECT_FALSE(nic.flooding());
  EXPECT_FALSE(nic.next_arrival().has_value());
}

TEST(Nic, FloodRateApproximatesPoissonMean) {
  hw::NicModel nic(CpuHz{1'000'000'000});
  Xoshiro256 rng(5);
  nic.start_flood(Cycles{0}, 10'000.0, rng);  // 10k pps at 1 GHz → 100k cy gap
  Cycles t{0};
  const int n = 20'000;
  for (int i = 0; i < n; ++i) {
    const auto next = nic.next_arrival();
    ASSERT_TRUE(next.has_value());
    ASSERT_GT(*next, t);
    t = *next;
    nic.acknowledge(t, rng);
  }
  const double mean_gap = static_cast<double>(t.v) / n;
  EXPECT_NEAR(mean_gap, 100'000.0, 3'000.0);
  EXPECT_EQ(nic.packets_delivered(), static_cast<std::uint64_t>(n));
  nic.stop_flood();
  EXPECT_FALSE(nic.next_arrival().has_value());
}

TEST(Nic, ZeroRateRejected) {
  hw::NicModel nic(CpuHz{1'000'000'000});
  Xoshiro256 rng(1);
  EXPECT_THROW(nic.start_flood(Cycles{0}, 0.0, rng), InvariantError);
}

// --- disk ------------------------------------------------------------------------

TEST(Disk, FifoWithFixedLatency) {
  hw::DiskModel disk(Cycles{5'000});
  const Cycles c1 = disk.submit(Cycles{100}, Pid{1});
  const Cycles c2 = disk.submit(Cycles{200}, Pid{2});
  EXPECT_EQ(c1.v, 5'100u);
  EXPECT_EQ(c2.v, 10'100u);  // queued behind the first
  EXPECT_EQ(disk.in_flight(), 2u);

  ASSERT_TRUE(disk.next_completion().has_value());
  EXPECT_EQ(disk.next_completion()->v, 5'100u);
  const auto done1 = disk.acknowledge(Cycles{5'100});
  EXPECT_EQ(done1.waiter, Pid{1});
  const auto done2 = disk.acknowledge(Cycles{10'100});
  EXPECT_EQ(done2.waiter, Pid{2});
  EXPECT_EQ(disk.requests_completed(), 2u);
  EXPECT_FALSE(disk.next_completion().has_value());
}

TEST(Disk, IdleDiskStartsFresh) {
  hw::DiskModel disk(Cycles{1'000});
  (void)disk.submit(Cycles{0}, Pid{1});
  (void)disk.acknowledge(Cycles{1'000});
  // After idling, a new request starts from `now`, not from last_done.
  const Cycles c = disk.submit(Cycles{50'000}, Pid{1});
  EXPECT_EQ(c.v, 51'000u);
}

// --- debug registers ---------------------------------------------------------------

TEST(DebugRegisters, ArmMatchDisarm) {
  hw::DebugRegisters dr;
  EXPECT_FALSE(dr.any_armed());
  dr.arm(0, VAddr{0x1000});
  dr.arm(2, VAddr{0x2000});
  EXPECT_TRUE(dr.any_armed());
  EXPECT_TRUE(dr.armed(0));
  EXPECT_FALSE(dr.armed(1));
  EXPECT_EQ(dr.match(VAddr{0x2000}), std::optional<int>(2));
  EXPECT_EQ(dr.match(VAddr{0x3000}), std::nullopt);
  dr.disarm(2);
  EXPECT_EQ(dr.match(VAddr{0x2000}), std::nullopt);
  dr.reset();
  EXPECT_FALSE(dr.any_armed());
}

TEST(DebugRegisters, SlotBoundsChecked) {
  hw::DebugRegisters dr;
  EXPECT_THROW(dr.arm(4, VAddr{0}), InvariantError);
  EXPECT_THROW(dr.arm(-1, VAddr{0}), InvariantError);
}

// --- frame allocator ---------------------------------------------------------------

TEST(FrameAllocator, ExhaustsAndRecycles) {
  mm::FrameAllocator fa(4);
  EXPECT_EQ(fa.total(), 4u);
  std::vector<FrameId> got;
  for (int i = 0; i < 4; ++i) {
    auto f = fa.allocate();
    ASSERT_TRUE(f.has_value());
    got.push_back(*f);
  }
  EXPECT_FALSE(fa.allocate().has_value());
  EXPECT_EQ(fa.used(), 4u);
  fa.release(got[2]);
  EXPECT_EQ(fa.available(), 1u);
  EXPECT_TRUE(fa.allocate().has_value());
}

TEST(FrameAllocator, DoubleReleaseRejected) {
  mm::FrameAllocator fa(2);
  const auto f = fa.allocate();
  fa.release(*f);
  EXPECT_THROW(fa.release(*f), InvariantError);
}

/// The message of the InvariantError `fn` throws, or "" if it throws none.
template <typename Fn>
std::string invariant_message(Fn&& fn) {
  try {
    fn();
  } catch (const InvariantError& e) {
    return e.what();
  }
  return "";
}

TEST(FrameAllocator, ReleaseAtOrAboveTheHighWaterMarkIsADoubleRelease) {
  mm::FrameAllocator fa(8);
  ASSERT_EQ(fa.allocate()->v, 0u);
  ASSERT_EQ(fa.allocate()->v, 1u);
  EXPECT_EQ(fa.high_water(), 2u);
  // Frames 2..7 were never handed out: releasing one is a double release.
  for (const std::uint32_t f : {2u, 7u})
    EXPECT_NE(invariant_message([&] { fa.release(FrameId{f}); }).find("double release"),
              std::string::npos)
        << f;
  EXPECT_NE(invariant_message([&] { fa.release(FrameId{8}); }).find("out of range"),
            std::string::npos);
  EXPECT_EQ(fa.used(), 2u);
  EXPECT_EQ(fa.available(), 6u);
}

TEST(FrameAllocator, HandsOutFramesInThePrefilledDescendingStackOrder) {
  // The reference model is the allocator this one replaced: a LIFO free
  // list prefilled with every frame in descending id order. A seeded walk
  // of allocations and releases — filling and draining in turns, through
  // exhaustion and back — must see the same frame ids and counts.
  for (const std::uint32_t frames : {1u, 7u, 64u, 1000u}) {
    mm::FrameAllocator fa(frames);
    std::vector<FrameId> stack;
    for (std::uint32_t i = frames; i > 0; --i) stack.push_back(FrameId{i - 1});
    std::vector<FrameId> held;
    SplitMix64 rng(0xF4A3E000 + frames);
    for (int step = 0; step < 20000; ++step) {
      const bool filling = (step / 700) % 2 == 0;
      if (held.empty() || rng.next() % 5 < (filling ? 3u : 2u)) {
        std::optional<FrameId> want;
        if (!stack.empty()) {
          want = stack.back();
          stack.pop_back();
        }
        const std::optional<FrameId> got = fa.allocate();
        ASSERT_EQ(got.has_value(), want.has_value()) << "step " << step;
        if (got) {
          ASSERT_EQ(got->v, want->v) << "step " << step;
          held.push_back(*got);
        }
      } else {
        const std::size_t at = rng.next() % held.size();
        const FrameId f = held[at];
        held[at] = held.back();
        held.pop_back();
        fa.release(f);
        stack.push_back(f);
      }
      ASSERT_EQ(fa.available(), stack.size()) << "step " << step;
      ASSERT_EQ(fa.used(), frames - stack.size()) << "step " << step;
    }
  }
}

// --- memory manager -----------------------------------------------------------------

TEST(MemoryManager, FirstTouchIsMinorFault) {
  mm::MemoryManager mm(64);
  mm.create_space(Tgid{1});
  const auto r1 = mm.touch(Tgid{1}, PageId{10});
  EXPECT_EQ(r1.fault, mm::FaultKind::kMinor);
  const auto r2 = mm.touch(Tgid{1}, PageId{10});
  EXPECT_EQ(r2.fault, mm::FaultKind::kNone);
  EXPECT_EQ(mm.stats(Tgid{1}).minor_faults, 1u);
  EXPECT_EQ(mm.space(Tgid{1}).resident_pages(), 1u);
}

TEST(MemoryManager, EvictionAndSwapInUnderPressure) {
  mm::MemoryManager mm(8, /*reclaim_batch=*/2, /*swap_readahead=*/1);
  mm.create_space(Tgid{1});
  // Fill RAM.
  for (std::uint64_t p = 0; p < 8; ++p)
    EXPECT_EQ(mm.touch(Tgid{1}, PageId{p}).fault, mm::FaultKind::kMinor);
  EXPECT_EQ(mm.frames_used(), 8u);
  // Ninth page forces reclaim.
  const auto r = mm.touch(Tgid{1}, PageId{100});
  EXPECT_EQ(r.fault, mm::FaultKind::kMinor);
  EXPECT_TRUE(r.evicted_someone);
  EXPECT_GE(r.evictions, 1u);
  EXPECT_GE(mm.swap_used_pages(), 1u);
  // Touch everything until we hit a swapped page: major fault.
  bool saw_major = false;
  for (std::uint64_t p = 0; p < 8 && !saw_major; ++p)
    saw_major = mm.touch(Tgid{1}, PageId{p}).fault == mm::FaultKind::kMajor;
  EXPECT_TRUE(saw_major);
  EXPECT_GE(mm.stats(Tgid{1}).major_faults, 1u);
}

TEST(MemoryManager, ClockGivesSecondChanceToReferencedPages) {
  mm::MemoryManager mm(4, 1, 1);
  mm.create_space(Tgid{1});
  mm.create_space(Tgid{2});
  for (std::uint64_t p = 0; p < 3; ++p) mm.touch(Tgid{1}, PageId{p});
  mm.touch(Tgid{2}, PageId{50});
  // Re-reference tgid 1's pages; they should survive the next reclaim wave
  // longer than tgid 2's unreferenced page.
  for (std::uint64_t p = 0; p < 3; ++p) mm.touch(Tgid{1}, PageId{p});
  // Trigger evictions with fresh pages; sweep clears ref bits first.
  mm.touch(Tgid{2}, PageId{51});
  mm.touch(Tgid{2}, PageId{52});
  EXPECT_GE(mm.global_stats().evictions, 2u);
}

TEST(MemoryManager, ReadaheadClustersConsecutiveSwappedPages) {
  mm::MemoryManager mm(16, 8, /*swap_readahead=*/4);
  mm.create_space(Tgid{1});
  // Fill and overflow so pages 0..N land in swap.
  for (std::uint64_t p = 0; p < 32; ++p) mm.touch(Tgid{1}, PageId{p});
  ASSERT_GT(mm.swap_used_pages(), 4u);
  const std::uint64_t before = mm.stats(Tgid{1}).readahead_pages;
  // Find a swapped page with swapped successors and fault it in.
  for (std::uint64_t p = 0; p < 32; ++p) {
    if (mm.touch(Tgid{1}, PageId{p}).fault == mm::FaultKind::kMajor) break;
  }
  EXPECT_GT(mm.stats(Tgid{1}).readahead_pages, before);
}

TEST(MemoryManager, DestroyReleasesFramesAndSwap) {
  mm::MemoryManager mm(8, 2, 1);
  mm.create_space(Tgid{1});
  for (std::uint64_t p = 0; p < 12; ++p) mm.touch(Tgid{1}, PageId{p});
  EXPECT_GT(mm.frames_used(), 0u);
  mm.destroy_space(Tgid{1});
  mm.check_invariants();
  EXPECT_EQ(mm.frames_used(), 0u);
  EXPECT_EQ(mm.swap_used_pages(), 0u);
  EXPECT_FALSE(mm.has_space(Tgid{1}));
}

TEST(MemoryManager, DestroyKeepsOtherSpacesIntact) {
  mm::MemoryManager mm(16, 4, 2);
  mm.create_space(Tgid{1});
  mm.create_space(Tgid{2});
  mm.create_space(Tgid{3});
  // Interleaved touches under pressure spread every space across RAM and
  // swap, so each teardown leaves holes among the survivors' frames.
  for (std::uint64_t p = 0; p < 24; ++p) {
    mm.touch(Tgid{1 + static_cast<std::int32_t>(p % 3)}, PageId{p});
    mm.check_invariants();
  }
  ASSERT_GT(mm.swap_used_pages(), 0u);
  const std::uint64_t survivor_resident = mm.space(Tgid{3}).resident_pages();
  mm.destroy_space(Tgid{2});
  mm.check_invariants();
  mm.destroy_space(Tgid{1});
  mm.check_invariants();
  EXPECT_EQ(mm.frames_used(), survivor_resident);
  // The survivor faults its swapped pages back into the freed frames.
  for (std::uint64_t p = 2; p < 24; p += 3) mm.touch(Tgid{3}, PageId{p});
  mm.check_invariants();
  EXPECT_EQ(mm.swap_used_pages(), 0u);
  mm.destroy_space(Tgid{3});
  mm.check_invariants();
  EXPECT_EQ(mm.frames_used(), 0u);
}

/// Space A touches `pages` pages in a scrambled order, with a neighbour
/// competing for frames after faulting in `neighbour_first` pages of its
/// own. Returns A's resident frames in page order: they follow neither page
/// order nor touch order.
std::vector<std::uint32_t> scrambled_space(mm::MemoryManager& mm, Tgid a, Tgid neighbour,
                                           std::uint64_t pages,
                                           std::uint64_t neighbour_first) {
  mm.create_space(a);
  mm.create_space(neighbour);
  for (std::uint64_t p = 0; p < neighbour_first; ++p)
    mm.touch(neighbour, PageId{0x100000 + p});
  std::vector<std::uint64_t> order(pages);
  for (std::uint64_t p = 0; p < pages; ++p) order[p] = p;
  Xoshiro256 rng(99);
  for (std::uint64_t i = pages - 1; i > 0; --i)
    std::swap(order[i], order[rng.next_below(i + 1)]);
  for (std::uint64_t i = 0; i < pages; ++i) {
    mm.touch(a, PageId{order[i]});
    if (i % 4 == 0) mm.touch(neighbour, PageId{i});
  }
  mm.check_invariants();
  std::vector<std::uint32_t> by_page;
  for (std::uint64_t p = 0; p < pages; ++p) {
    const mm::PageEntry* pe = mm.space(a).find(PageId{p});
    if (pe != nullptr && pe->resident) by_page.push_back(pe->frame.v);
  }
  return by_page;
}

/// Destroys `a`, then faults `by_page.size()` fresh pages into a new space
/// `b`: A's frames went back ascending onto the LIFO free list, so B must
/// receive them in descending id order — exactly what a scan over all of
/// RAM would have produced.
void expect_reuse_is_lifo_descending(mm::MemoryManager& mm, Tgid a, Tgid b,
                                     const std::vector<std::uint32_t>& by_page) {
  mm.destroy_space(a);
  mm.check_invariants();
  std::vector<std::uint32_t> expected = by_page;
  std::sort(expected.rbegin(), expected.rend());
  mm.create_space(b);
  std::vector<std::uint32_t> got;
  for (std::uint64_t p = 0; p < expected.size(); ++p) {
    const mm::TouchResult r = mm.touch(b, PageId{p});
    EXPECT_EQ(r.fault, mm::FaultKind::kMinor);
    EXPECT_FALSE(r.evicted_someone);
    got.push_back(mm.space(b).find(PageId{p})->frame.v);
  }
  EXPECT_EQ(got, expected);
  mm.destroy_space(b);
  mm.check_invariants();
}

TEST(MemoryManager, DestroyReleasesFramesAscendingSoReuseIsLifoDescending) {
  const Tgid a{1}, b{2}, neighbour{3};
  {
    // A overflows the machine, ends up holding more than half of RAM, and
    // its frames are scrambled by reclaim.
    mm::MemoryManager mm(32, /*reclaim_batch=*/4, /*swap_readahead=*/1);
    const std::vector<std::uint32_t> by_page = scrambled_space(mm, a, neighbour, 48, 0);
    ASSERT_GT(by_page.size(), mm.frames_total() / 2);
    ASSERT_FALSE(std::is_sorted(by_page.begin(), by_page.end()));
    ASSERT_GT(mm.swap_used_pages(), 0u);
    expect_reuse_is_lifo_descending(mm, a, b, by_page);
  }
  {
    // A small share of a machine with no pressure, its frames scrambled by
    // interleaving with a neighbour.
    mm::MemoryManager mm(4096, /*reclaim_batch=*/4, /*swap_readahead=*/1);
    const std::vector<std::uint32_t> by_page = scrambled_space(mm, a, neighbour, 48, 1024);
    ASSERT_EQ(by_page.size(), 48u);
    ASSERT_FALSE(std::is_sorted(by_page.begin(), by_page.end()));
    expect_reuse_is_lifo_descending(mm, a, b, by_page);
  }
}

TEST(MemoryManager, PagesAcrossBlocksAndHighIdsFaultEvictAndSwapBackIn) {
  mm::MemoryManager mm(8, /*reclaim_batch=*/4, /*swap_readahead=*/1);
  const Tgid a{1}, hog{2};
  mm.create_space(a);
  mm.create_space(hog);
  // Pages on both sides of page-table block boundaries, low and at the
  // hog's 0x100000+ range.
  const std::vector<std::uint64_t> pages = {62, 63, 64, 65, 0x100000, 0x10003f, 0x100040};
  for (const std::uint64_t p : pages)
    EXPECT_EQ(mm.touch(a, PageId{p}).fault, mm::FaultKind::kMinor) << p;
  mm.check_invariants();
  // The hog's sweep, over the same page ids in its own space, pushes every
  // page of A out to swap.
  for (std::uint64_t p = 0; p < 64; ++p) mm.touch(hog, PageId{0x100000 + p});
  mm.check_invariants();
  for (const std::uint64_t p : pages) {
    const mm::PageEntry* pe = mm.space(a).find(PageId{p});
    ASSERT_NE(pe, nullptr) << p;
    ASSERT_TRUE(pe->in_swap && !pe->resident) << p;
  }
  EXPECT_EQ(mm.space(a).resident_pages(), 0u);
  for (const std::uint64_t p : pages) {
    EXPECT_EQ(mm.touch(a, PageId{p}).fault, mm::FaultKind::kMajor) << p;
    mm.check_invariants();
  }
  EXPECT_EQ(mm.stats(a).major_faults, pages.size());
  mm.destroy_space(a);
  mm.check_invariants();
  mm.destroy_space(hog);
  mm.check_invariants();
  EXPECT_EQ(mm.frames_used(), 0u);
  EXPECT_EQ(mm.swap_used_pages(), 0u);
}

TEST(MemoryManager, ReadaheadStopsAtANeverTouchedPage) {
  mm::MemoryManager mm(16, /*reclaim_batch=*/8, /*swap_readahead=*/8);
  const Tgid a{1}, hog{2};
  mm.create_space(a);
  mm.create_space(hog);
  // Page 64 shares a page-table block with 65 and 66 but is never touched.
  const std::vector<std::uint64_t> pages = {60, 61, 62, 63, 65, 66};
  for (const std::uint64_t p : pages) mm.touch(a, PageId{p});
  std::uint64_t next = 0;
  for (; next < 48; ++next) mm.touch(hog, PageId{next});
  for (const std::uint64_t p : pages) ASSERT_TRUE(mm.space(a).find(PageId{p})->in_swap) << p;
  // Fill RAM, so the fault below reclaims a full batch and the cluster has
  // spare frames to land in.
  for (int i = 0; i < 16 && mm.frames_used() < mm.frames_total(); ++i)
    mm.touch(hog, PageId{next++});
  ASSERT_EQ(mm.frames_used(), mm.frames_total());
  const std::uint64_t before = mm.stats(a).readahead_pages;
  EXPECT_EQ(mm.touch(a, PageId{60}).fault, mm::FaultKind::kMajor);
  EXPECT_EQ(mm.stats(a).readahead_pages - before, 3u);  // 61..63, not past 64
  // Page 64 still reads as never touched.
  const mm::PageEntry* gap = mm.space(a).find(PageId{64});
  EXPECT_TRUE(gap == nullptr || !(gap->resident || gap->in_swap));
  EXPECT_TRUE(mm.space(a).find(PageId{65})->in_swap);
  mm.check_invariants();
}

TEST(MemoryManager, SpaceCanBeCreatedAgainAfterDestroy) {
  mm::MemoryManager mm(8, 2, 1);
  const Tgid t{3};
  mm.create_space(t);
  for (std::uint64_t p = 0; p < 12; ++p) mm.touch(t, PageId{p});
  mm.destroy_space(t);
  mm.check_invariants();
  EXPECT_FALSE(mm.has_space(t));
  EXPECT_THROW(mm.stats(t), InvariantError);

  mm::AddressSpace& again = mm.create_space(t);
  EXPECT_EQ(again.owner(), t);
  EXPECT_EQ(again.resident_pages(), 0u);
  EXPECT_EQ(again.find(PageId{0}), nullptr);
  EXPECT_EQ(mm.stats(t).minor_faults, 0u);
  EXPECT_EQ(mm.stats(t).evictions, 0u);
  // Nothing of the old space survives: its pages fault in as new.
  EXPECT_EQ(mm.touch(t, PageId{0}).fault, mm::FaultKind::kMinor);
  EXPECT_EQ(mm.stats(t).minor_faults, 1u);
  mm.check_invariants();
  mm.destroy_space(t);
  mm.check_invariants();
}

TEST(MemoryManager, InvariantCheckCatchesBadSwapAccounting) {
  mm::MemoryManager mm(8, 2, 1);
  mm.create_space(Tgid{1});
  for (std::uint64_t p = 0; p < 12; ++p) mm.touch(Tgid{1}, PageId{p});
  mm.check_invariants();
  // A page marked swapped behind the manager's back breaks the swap count.
  mm.space(Tgid{1}).entry(PageId{99}).in_swap = true;
  EXPECT_THROW(mm.check_invariants(), InvariantError);
}

TEST(MemoryManager, UnknownSpaceRejected) {
  mm::MemoryManager mm(8);
  EXPECT_THROW(mm.touch(Tgid{9}, PageId{0}), InvariantError);
  EXPECT_THROW(mm.destroy_space(Tgid{9}), InvariantError);
  EXPECT_THROW(mm.create_space(Tgid{}), InvariantError);
  EXPECT_FALSE(mm.has_space(Tgid{}));
  mm.check_invariants();
  mm.create_space(Tgid{1});
  EXPECT_THROW(mm.create_space(Tgid{1}), InvariantError);
  EXPECT_THROW(mm.touch(Tgid{0}, PageId{0}), InvariantError);
  mm.check_invariants();
}

// --- mm footprint ------------------------------------------------------------------

/// Bytes the global allocator hands out while `fn` runs.
template <typename Fn>
std::uint64_t bytes_allocated_by(Fn&& fn) {
  const std::uint64_t before = g_alloc_bytes.load();
  fn();
  return g_alloc_bytes.load() - before;
}

TEST(MemoryFootprint, ConstructionAllocatesTheSameForAnyRamSize) {
  const std::uint64_t small =
      bytes_allocated_by([] { const mm::MemoryManager mm(16 * 1024, 256); });
  const std::uint64_t large =
      bytes_allocated_by([] { const mm::MemoryManager mm(256 * 1024, 256); });
  EXPECT_EQ(small, large);
  EXPECT_LE(large, 1024u);
}

TEST(MemoryFootprint, TouchesAllocateWithThePagesTouchedNotWithRam) {
  // Bytes allocated to create a space and fault in `k` pages.
  const auto touch_bytes = [](std::uint32_t frames, std::uint64_t k) {
    mm::MemoryManager mm(frames, 256);
    const std::uint64_t bytes = bytes_allocated_by([&] {
      mm.create_space(Tgid{1});
      for (std::uint64_t p = 0; p < k; ++p) mm.touch(Tgid{1}, PageId{p});
    });
    mm.check_invariants();
    return bytes;
  };
  std::uint64_t previous = 0;
  for (const std::uint64_t k : {8u, 64u, 1024u, 4096u}) {
    const std::uint64_t small = touch_bytes(16 * 1024, k);
    EXPECT_EQ(small, touch_bytes(256 * 1024, k)) << k << " pages";
    EXPECT_GT(small, previous) << k << " pages";
    EXPECT_LE(small, 1024 + 96 * k) << k << " pages";
    previous = small;
  }
}

}  // namespace
}  // namespace mtr
