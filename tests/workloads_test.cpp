// Workload model tests: the paper's four test programs behave as specified
// (sizes, determinism, thread structure, library usage), plus the tenant
// population generator (Zipf shares, attacker placement, seed purity).
#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <set>
#include <vector>

#include "common/ensure.hpp"
#include "sim/simulation.hpp"
#include "workloads/population.hpp"
#include "workloads/stdlibs.hpp"
#include "workloads/workloads.hpp"

namespace mtr::workloads {
namespace {

using Kind = WorkloadKind;

TEST(Names, ShortAndLong) {
  EXPECT_STREQ(short_name(Kind::kOurs), "O");
  EXPECT_STREQ(short_name(Kind::kPi), "P");
  EXPECT_STREQ(short_name(Kind::kWhetstone), "W");
  EXPECT_STREQ(short_name(Kind::kBrute), "B");
  EXPECT_STREQ(long_name(Kind::kBrute), "brute");
}

TEST(StandardRegistry, ProvidesCoreSymbols) {
  const exec::LibraryRegistry reg = standard_registry();
  EXPECT_TRUE(reg.has("libc"));
  EXPECT_TRUE(reg.has("libm"));
  EXPECT_TRUE(reg.has("libpthread"));
  EXPECT_NO_THROW(reg.resolve("malloc", {"libc"}));
  EXPECT_NO_THROW(reg.resolve("sqrt", {"libm"}));
}

TEST(MakeWorkload, RejectsNonPositiveScale) {
  WorkloadParams p;
  p.scale = 0.0;
  EXPECT_THROW(make_workload(Kind::kOurs, p), mtr::InvariantError);
}

TEST(MakeWorkload, NominalCyclesScaleLinearly) {
  WorkloadParams small;
  small.scale = 0.1;
  WorkloadParams big;
  big.scale = 0.2;
  for (Kind k : {Kind::kOurs, Kind::kPi, Kind::kWhetstone, Kind::kBrute}) {
    const auto a = make_workload(k, small).nominal_cycles.v;
    const auto b = make_workload(k, big).nominal_cycles.v;
    EXPECT_NEAR(static_cast<double>(b) / static_cast<double>(a), 2.0, 0.1)
        << long_name(k);
  }
}

class WorkloadRunTest : public ::testing::TestWithParam<Kind> {};

TEST_P(WorkloadRunTest, RunsToCompletionWithExpectedShape) {
  sim::Simulation s;
  WorkloadParams params;
  params.scale = 0.01;
  params.brute_threads = 3;
  const WorkloadInfo info = make_workload(GetParam(), params);
  const Pid pid = s.launch(info.image);
  ASSERT_TRUE(s.run_until_exit(pid));
  const kernel::Usage u = s.usage_of(pid);
  // CPU-bound programs: utime dominates, stime marginal (paper §V-B1: the
  // system time of O/P/W is "too little to be shown").
  EXPECT_GT(u.true_cycles.user.v, 10 * u.true_cycles.system.v)
      << long_name(GetParam());
  // Billed time tracks truth within tick quantization on a clean machine.
  const double billed = ticks_to_seconds(u.ticks.total(), TimerHz{});
  const double truth = cycles_to_seconds(u.true_cycles.total(), CpuHz{});
  EXPECT_NEAR(billed / truth, 1.0, 0.15) << long_name(GetParam());
}

TEST_P(WorkloadRunTest, DeterministicAcrossRuns) {
  auto run_once = [&](std::uint64_t seed) {
    sim::SimConfig cfg;
    cfg.kernel.seed = seed;
    sim::Simulation s(cfg);
    WorkloadParams params;
    params.scale = 0.01;
    params.brute_threads = 2;
    const WorkloadInfo info = make_workload(GetParam(), params);
    const Pid pid = s.launch(info.image);
    s.run_until_exit(pid);
    const auto u = s.usage_of(pid);
    return std::pair{u.true_cycles.total().v, u.ticks.total().v};
  };
  const auto a = run_once(42);
  const auto b = run_once(42);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadRunTest,
                         ::testing::Values(Kind::kOurs, Kind::kPi, Kind::kWhetstone,
                                           Kind::kBrute),
                         [](const auto& info) { return long_name(info.param); });

TEST(Brute, SpawnsRequestedThreads) {
  sim::Simulation s;
  WorkloadParams params;
  params.scale = 0.01;
  params.brute_threads = 5;
  const WorkloadInfo info = make_workload(Kind::kBrute, params);
  const Pid pid = s.launch(info.image);
  const Tgid tg = s.kernel().process(pid).tgid;
  ASSERT_TRUE(s.run_until_exit(pid));
  // Reference: every pid that names the group, scanned from the table.
  std::vector<Pid> scanned;
  kernel::Usage scanned_sum;
  for (const Pid other : s.kernel().all_pids()) {
    if (s.kernel().process(other).tgid != tg) continue;
    scanned.push_back(other);
    scanned_sum += s.kernel().process(other).usage;
  }
  EXPECT_EQ(scanned.size(), 6u);  // main + 5 workers
  const auto members = s.kernel().group_members(tg);
  EXPECT_EQ(std::vector<Pid>(members.begin(), members.end()), scanned);
  EXPECT_EQ(s.kernel().group_usage(tg), scanned_sum);
}

bool same_population(const std::vector<TenantSpec>& a,
                     const std::vector<TenantSpec>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index || a[i].archetype != b[i].archetype ||
        a[i].share != b[i].share || a[i].attacker != b[i].attacker ||
        a[i].seed != b[i].seed)
      return false;
  }
  return true;
}

TEST(Population, IsAPureFunctionOfSpecAndSeed) {
  PopulationSpec spec;
  spec.size = 64;
  spec.attacker_fraction = 0.25;
  const auto a = generate_population(spec, 0xFEEDFACEu);
  const auto b = generate_population(spec, 0xFEEDFACEu);
  EXPECT_TRUE(same_population(a, b));
  const auto c = generate_population(spec, 0xFEEDFACFu);
  EXPECT_FALSE(same_population(a, c));  // seed actually reaches the streams
}

TEST(Population, RegeneratesBitIdenticallyAcrossThreads) {
  // The generator has no global state, so concurrent regeneration from the
  // same (spec, seed) — the shape a multi-threaded BatchRunner produces
  // when two cells share a population axis point — is bit-identical to a
  // serial call, shares included (fixed summation order).
  PopulationSpec spec;
  spec.size = 257;
  spec.attacker_fraction = 0.125;
  const auto reference = generate_population(spec, 42);
  std::vector<std::future<std::vector<TenantSpec>>> futures;
  for (int t = 0; t < 8; ++t)
    futures.push_back(std::async(std::launch::async, [&spec] {
      return generate_population(spec, 42);
    }));
  for (auto& f : futures) EXPECT_TRUE(same_population(reference, f.get()));
}

TEST(Population, ZipfSharesAreNormalizedAndRankOrdered) {
  PopulationSpec spec;
  spec.size = 101;
  const auto tenants = generate_population(spec, 7);
  ASSERT_EQ(tenants.size(), 101u);
  EXPECT_EQ(tenants[0].share, 0.0);  // the victim carries no neighbor share
  double sum = 0.0;
  for (std::size_t i = 1; i < tenants.size(); ++i) {
    sum += tenants[i].share;
    EXPECT_GT(tenants[i].share, 0.0);
    if (i > 1) {
      EXPECT_LT(tenants[i].share, tenants[i - 1].share);
    }
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
  // Zipf with s=1.1: rank 1 vs rank 2 differ by 2^1.1.
  EXPECT_NEAR(tenants[1].share / tenants[2].share, std::pow(2.0, 1.1), 1e-9);
}

TEST(Population, AttackerPlacementMatchesFractionAndSparesTheVictim) {
  PopulationSpec spec;
  spec.size = 41;  // 40 neighbors
  spec.attacker_fraction = 0.25;
  const auto tenants = generate_population(spec, 99);
  EXPECT_FALSE(tenants[0].attacker);
  int attackers = 0;
  for (const TenantSpec& t : tenants) attackers += t.attacker ? 1 : 0;
  EXPECT_EQ(attackers, 10);  // round(0.25 * 40)

  // Changing only the fraction reshuffles nothing else: seeds, shares and
  // archetypes are drawn from streams the attacker draw never touches.
  PopulationSpec more = spec;
  more.attacker_fraction = 0.5;
  const auto crowded = generate_population(more, 99);
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    EXPECT_EQ(tenants[i].seed, crowded[i].seed);
    EXPECT_EQ(tenants[i].share, crowded[i].share);
    EXPECT_EQ(tenants[i].archetype, crowded[i].archetype);
    if (tenants[i].attacker) {
      EXPECT_TRUE(crowded[i].attacker);  // the smaller draw nests in the larger
    }
  }
}

TEST(Population, PerTenantSeedsAreDistinct) {
  PopulationSpec spec;
  spec.size = 1000;
  const auto tenants = generate_population(spec, 3);
  std::set<std::uint64_t> seeds;
  for (const TenantSpec& t : tenants) seeds.insert(t.seed);
  EXPECT_EQ(seeds.size(), tenants.size());
}

TEST(Population, SingleTenantCellIsDisabled) {
  PopulationSpec spec;
  EXPECT_FALSE(spec.enabled());
  const auto tenants = generate_population(spec, 11);
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_FALSE(tenants[0].attacker);
  EXPECT_EQ(tenants[0].share, 0.0);
}

TEST(Population, TenantNamesCarryArchetypeAndAttackerTags) {
  TenantSpec t;
  t.index = 17;
  t.archetype = TenantArchetype::kIoBound;
  EXPECT_EQ(tenant_name(t), "tenant-17[io]");
  t.attacker = true;
  EXPECT_EQ(tenant_name(t), "tenant-17[atk]");
}

TEST(Workloads, HotAddressesAreDistinct) {
  const auto o = make_workload(Kind::kOurs).hot_addr;
  const auto p = make_workload(Kind::kPi).hot_addr;
  const auto w = make_workload(Kind::kWhetstone).hot_addr;
  const auto b = make_workload(Kind::kBrute).hot_addr;
  EXPECT_NE(o, p);
  EXPECT_NE(p, w);
  EXPECT_NE(w, b);
}

}  // namespace
}  // namespace mtr::workloads
