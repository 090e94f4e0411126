// Unit tests for mtr_common: strong types, RNG determinism and
// distributions, statistics, table/chart rendering, formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/ensure.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/types.hpp"

namespace mtr {
namespace {

// --- types -------------------------------------------------------------------

TEST(Types, CycleArithmetic) {
  Cycles a{100};
  Cycles b{40};
  EXPECT_EQ((a + b).v, 140u);
  EXPECT_EQ((a - b).v, 60u);
  EXPECT_EQ((a * 3).v, 300u);
  EXPECT_EQ(a / b, 2u);
  EXPECT_EQ((a % b).v, 20u);
  a += b;
  EXPECT_EQ(a.v, 140u);
  EXPECT_LT(b, a);
}

TEST(Types, TickLengthMatchesHz) {
  const CpuHz cpu{2'530'000'000};
  const TimerHz hz{250};
  EXPECT_EQ(tick_length(cpu, hz).v, 10'120'000u);
  EXPECT_DOUBLE_EQ(ticks_to_seconds(Ticks{250}, hz), 1.0);
}

TEST(Types, SecondsCyclesRoundTrip) {
  const CpuHz cpu{1'000'000'000};
  EXPECT_EQ(seconds_to_cycles(2.5, cpu).v, 2'500'000'000u);
  EXPECT_DOUBLE_EQ(cycles_to_seconds(Cycles{500'000'000}, cpu), 0.5);
}

TEST(Types, PageMapping) {
  EXPECT_EQ(page_of(VAddr{0}).v, 0u);
  EXPECT_EQ(page_of(VAddr{4095}).v, 0u);
  EXPECT_EQ(page_of(VAddr{4096}).v, 1u);
  EXPECT_EQ(page_base(PageId{3}).v, 3u * 4096u);
}

TEST(Types, PidValidity) {
  EXPECT_FALSE(Pid{}.valid());
  EXPECT_TRUE(Pid{0}.valid());
  EXPECT_TRUE(Pid{7}.valid());
  EXPECT_EQ(kIdlePid, Pid{0});
}

TEST(Types, UsageAccumulation) {
  CpuUsageCycles a{Cycles{10}, Cycles{5}};
  const CpuUsageCycles b{Cycles{1}, Cycles{2}};
  a += b;
  EXPECT_EQ(a.user.v, 11u);
  EXPECT_EQ(a.system.v, 7u);
  EXPECT_EQ(a.total().v, 18u);
}

// --- ensure --------------------------------------------------------------------

TEST(Ensure, ThrowsWithContext) {
  try {
    MTR_ENSURE_MSG(1 == 2, "custom " << 42);
    FAIL() << "should have thrown";
  } catch (const InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Ensure, PassesSilently) {
  MTR_ENSURE(2 + 2 == 4);  // must not throw
}

// --- rng ----------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123);
  Xoshiro256 b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1);
  Xoshiro256 b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) same += (a.next() == b.next());
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedDrawsInRange) {
  Xoshiro256 r(7);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const auto v = r.next_in(5, 9);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 9u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 r(9);
  double sum = 0;
  for (int i = 0; i < 10'000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10'000, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  Xoshiro256 r(11);
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += r.next_exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.1);
}

TEST(Rng, BernoulliFrequency) {
  Xoshiro256 r(13);
  int hits = 0;
  for (int i = 0; i < 100'000; ++i) hits += r.next_bool(0.3);
  EXPECT_NEAR(hits / 100'000.0, 0.3, 0.01);
}

// --- stats -----------------------------------------------------------------------

TEST(Stats, RunningMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.001);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Stats, EmptyIsSafe) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Stats, AllEqualSamplesHaveZeroSpread) {
  RunningStats r;
  for (int i = 0; i < 16; ++i) r.add(7.0);
  EXPECT_DOUBLE_EQ(r.variance(), 0.0);
  EXPECT_DOUBLE_EQ(r.stddev(), 0.0);
}

// --- quantile sketch --------------------------------------------------------------

TEST(QuantileSketchTest, EmptySketchIsAllZeroes) {
  const QuantileSketch s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.min(), 0.0);
  EXPECT_DOUBLE_EQ(s.max(), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
}

TEST(QuantileSketchTest, QuantileWalkCoversNegativeZeroAndPositive) {
  QuantileSketch s;
  s.add(-100.0);
  s.add(0.0);
  s.add(100.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.zero_count(), 1u);
  EXPECT_DOUBLE_EQ(s.min(), -100.0);
  EXPECT_DOUBLE_EQ(s.max(), 100.0);
  // Extreme quantiles clamp to the exact envelope; the median is the
  // exact-zero bucket.
  EXPECT_DOUBLE_EQ(s.quantile(0.0), -100.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
}

TEST(QuantileSketchTest, CountNearTwoToTheSixtyFourKeepsItsRank) {
  // The metrics reader rebuilds sketches from bucket counts, so a count
  // this large is accepted input. As a double, count - 1 rounds up to
  // 2^64, one past uint64_t's range.
  QuantileSketch s;
  s.load_bucket(10, UINT64_MAX - 1, /*negative=*/false);
  s.load_bucket(20, 1, /*negative=*/false);
  s.load_bounds(1.0, 2.0);
  ASSERT_EQ(s.count(), UINT64_MAX);
  const double low = s.quantile(0.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), low);
  // The top rank is the single sample in the higher bucket.
  EXPECT_GT(s.quantile(1.0), low);
  EXPECT_LE(s.quantile(1.0), 2.0);

  // Bucket counts that sum past 2^64 wrap count() itself (here to 5).
  // The walk saturates instead of wrapping: rank 4 lands in the huge zero
  // bucket, not past it.
  QuantileSketch wrapped;
  wrapped.load_bucket(10, 1, /*negative=*/true);
  wrapped.load_zero(UINT64_MAX);
  wrapped.load_bucket(20, 5, /*negative=*/false);
  wrapped.load_bounds(-2.0, 2.0);
  ASSERT_EQ(wrapped.count(), 5u);
  EXPECT_DOUBLE_EQ(wrapped.quantile(1.0), 0.0);
}

TEST(QuantileSketchTest, RelativeErrorStaysWithinAlpha) {
  QuantileSketch s;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    // Log-uniform grid over twelve decades, ascending (its own sorted
    // order), so the nearest-rank exact quantile is a direct index.
    const double v = std::pow(10.0, -6.0 + 12.0 * i / 999.0);
    xs.push_back(v);
    s.add(v);
  }
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = xs[static_cast<std::size_t>(q * (xs.size() - 1))];
    const double est = s.quantile(q);
    EXPECT_NEAR(est, exact, QuantileSketch::kAlpha * exact * 1.05)
        << "q=" << q;
  }
}

TEST(QuantileSketchTest, MergeIsCommutativeAssociativeAndExact) {
  QuantileSketch a, b, c, whole;
  std::uint64_t x = 42;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x;
  };
  for (int i = 0; i < 300; ++i) {
    // Signed spread with occasional exact zeroes.
    const double v = (static_cast<double>(next() % 2001) - 1000.0) / 8.0;
    whole.add(v);
    (i % 3 == 0 ? a : i % 3 == 1 ? b : c).add(v);
  }
  QuantileSketch ab_c = a;
  ab_c.merge(b);
  ab_c.merge(c);
  QuantileSketch bc = b;
  bc.merge(c);
  QuantileSketch a_bc = a;
  a_bc.merge(bc);
  QuantileSketch cba = c;
  cba.merge(b);
  cba.merge(a);
  // Bucket-wise addition: every grouping and order lands on the same
  // sketch as feeding the whole stream into one.
  EXPECT_EQ(ab_c, whole);
  EXPECT_EQ(a_bc, whole);
  EXPECT_EQ(cba, whole);
  // Merging an empty sketch is the identity, both ways.
  QuantileSketch id = whole;
  id.merge(QuantileSketch{});
  EXPECT_EQ(id, whole);
  QuantileSketch onto_empty;
  onto_empty.merge(whole);
  EXPECT_EQ(onto_empty, whole);
}

TEST(QuantileSketchTest, OutOfRangeMagnitudesClampToEdgeBuckets) {
  QuantileSketch s;
  s.add(1e300);   // far past gamma^kMaxIndex
  s.add(1e-300);  // far below gamma^kMinIndex
  s.add(-1e300);
  ASSERT_EQ(s.positive().size(), 2u);
  EXPECT_EQ(s.positive().begin()->first, QuantileSketch::kMinIndex);
  EXPECT_EQ(s.positive().rbegin()->first, QuantileSketch::kMaxIndex);
  ASSERT_EQ(s.negative().size(), 1u);
  EXPECT_EQ(s.negative().begin()->first, QuantileSketch::kMaxIndex);
  // Estimates still clamp into the exact envelope.
  EXPECT_GE(s.quantile(0.0), s.min());
  EXPECT_LE(s.quantile(1.0), s.max());
}

TEST(QuantileSketchTest, LoadersRebuildTheExactSketch) {
  QuantileSketch s;
  for (const double v : {0.5, -2.0, 0.0, 0.0, 3.75, 1e-9, -4.5}) s.add(v);
  QuantileSketch rebuilt;
  rebuilt.load_zero(s.zero_count());
  for (const auto& [i, n] : s.negative()) rebuilt.load_bucket(i, n, true);
  for (const auto& [i, n] : s.positive()) rebuilt.load_bucket(i, n, false);
  rebuilt.load_bounds(s.min(), s.max());
  EXPECT_EQ(rebuilt, s);  // what the metrics.json parser reconstructs
}

// --- table ------------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, ArityMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvariantError);
}

TEST(BarChartTest, RendersStackedBars) {
  BarChart chart("Fig. X", "s");
  chart.add({"O normal", 10.0, 0.5});
  chart.add({"O attacked", 14.0, 0.5});
  chart.add_gap();
  chart.add({"P normal", 9.0, 0.1});
  std::ostringstream os;
  chart.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("Fig. X"), std::string::npos);
  EXPECT_NE(out.find("O attacked"), std::string::npos);
  EXPECT_NE(out.find('U'), std::string::npos);  // user-time bar segment
  EXPECT_NE(out.find('S'), std::string::npos);  // system-time bar segment
}

TEST(Format, Helpers) {
  EXPECT_EQ(fmt_double(1.2345, 2), "1.23");
  EXPECT_EQ(fmt_ratio(1.5), "1.50x");
  EXPECT_EQ(fmt_percent_delta(12.3), "+12.3%");
  EXPECT_EQ(fmt_percent_delta(-3.21), "-3.2%");
}

}  // namespace
}  // namespace mtr
