// Hardware-device and memory-management substrate tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "hw/debug_registers.hpp"
#include "hw/disk.hpp"
#include "hw/nic.hpp"
#include "hw/timer.hpp"
#include "mm/memory_manager.hpp"

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

TEST(MemoryManager, DestroyReleasesFramesAscendingSoReuseIsLifoDescending) {
  // Space A touches a scrambled page order on a machine it overflows, with
  // a neighbour competing for frames: under reclaim its resident frames
  // follow neither page order nor touch order.
  mm::MemoryManager mm(32, /*reclaim_batch=*/4, /*swap_readahead=*/1);
  const Tgid a{1}, b{2}, neighbour{3};
  mm.create_space(a);
  mm.create_space(neighbour);
  constexpr std::uint64_t kPages = 48;
  std::vector<std::uint64_t> order(kPages);
  for (std::uint64_t p = 0; p < kPages; ++p) order[p] = p;
  Xoshiro256 rng(99);
  for (std::uint64_t i = kPages - 1; i > 0; --i)
    std::swap(order[i], order[rng.next_below(i + 1)]);
  for (std::uint64_t i = 0; i < kPages; ++i) {
    mm.touch(a, PageId{order[i]});
    if (i % 4 == 0) mm.touch(neighbour, PageId{i});
  }
  mm.check_invariants();

  std::vector<std::uint32_t> by_page;  // A's frames, in page order
  for (std::uint64_t p = 0; p < kPages; ++p) {
    const mm::PageEntry* pe = mm.space(a).find(PageId{p});
    if (pe != nullptr && pe->resident) by_page.push_back(pe->frame.v);
  }
  ASSERT_GT(by_page.size(), 4u);
  ASSERT_FALSE(std::is_sorted(by_page.begin(), by_page.end()));
  ASSERT_GT(mm.swap_used_pages(), 0u);

  mm.destroy_space(a);
  mm.check_invariants();

  // A's frames went back ascending onto the LIFO free list, so a fresh
  // space faulting the same number of pages receives them in descending
  // id order — exactly what a scan over all of RAM would have produced.
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
  mm.check_invariants();
  mm.create_space(Tgid{1});
  EXPECT_THROW(mm.create_space(Tgid{1}), InvariantError);
}

}  // namespace
}  // namespace mtr
