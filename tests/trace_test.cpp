// Observability-layer tests: tracer ring semantics (wrap keeps newest,
// exact drop counter, zero allocations on the record path), metrics
// aggregation (KernelStats / MetricsRegistry / PoolMetrics / SweepMetrics
// merges), the metrics.json writer, the Perfetto exporter, and — the load-
// bearing guarantee — that turning observability on does not change a
// single experiment result.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "helpers.hpp"
#include "trace/metrics.hpp"
#include "trace/perfetto.hpp"
#include "trace/tracer.hpp"
#include "workloads/workloads.hpp"

// --- counting allocator hook -------------------------------------------------------
//
// TU-local replacement of the global allocation functions so the suite can
// assert Tracer::record() never allocates. The counter only ever increases;
// tests snapshot it around the code under scrutiny.

namespace {
std::atomic<std::uint64_t> g_alloc_calls{0};

void* counted_alloc(std::size_t n) {
  ++g_alloc_calls;
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

namespace mtr::trace {
namespace {

// --- ring semantics ---------------------------------------------------------------

TEST(TracerRing, FillsWithoutDropsUpToCapacity) {
  Tracer t(4);
  EXPECT_EQ(t.capacity(), 4u);
  for (int i = 0; i < 4; ++i) t.instant(Cycles{static_cast<std::uint64_t>(i)}, "e", Pid{1}, Tgid{1});
  EXPECT_EQ(t.recorded(), 4u);
  EXPECT_EQ(t.dropped(), 0u);
  EXPECT_EQ(t.size(), 4u);
}

TEST(TracerRing, WrapKeepsNewestAndCountsDropsExactly) {
  Tracer t(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    t.instant(Cycles{i}, "e", Pid{1}, Tgid{1});
  EXPECT_EQ(t.recorded(), 10u);
  EXPECT_EQ(t.dropped(), 6u);  // exactly recorded - capacity
  EXPECT_EQ(t.size(), 4u);
  // The survivors are the newest four, visited oldest-first.
  std::vector<std::uint64_t> ts;
  t.for_each([&](const TraceEvent& e) { ts.push_back(e.ts.v); });
  EXPECT_EQ(ts, (std::vector<std::uint64_t>{6, 7, 8, 9}));
}

TEST(TracerRing, CapacityZeroDropsEverything) {
  Tracer t(0);
  for (std::uint64_t i = 0; i < 5; ++i)
    t.instant(Cycles{i}, "e", Pid{1}, Tgid{1});
  EXPECT_EQ(t.recorded(), 5u);
  EXPECT_EQ(t.dropped(), 5u);
  EXPECT_EQ(t.size(), 0u);
  std::size_t visited = 0;
  t.for_each([&](const TraceEvent&) { ++visited; });
  EXPECT_EQ(visited, 0u);
}

TEST(TracerRing, RecordPathNeverAllocates) {
  Tracer t(256);  // the ring's one allocation happens here
  const std::uint64_t before = g_alloc_calls.load();
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    t.span(Cycles{i}, "span", Pid{2}, Tgid{2}, Cycles{7}, Pid{3});
    t.instant(Cycles{i}, "instant", Pid{2}, Tgid{2});
    t.tick(Cycles{i}, Pid{2}, Tgid{2}, CpuMode::kUser, 1);
  }
  EXPECT_EQ(g_alloc_calls.load(), before)
      << "Tracer::record allocated on the hot path";
  EXPECT_EQ(t.recorded(), 30'000u);
  EXPECT_EQ(t.dropped(), 30'000u - 256u);
}

TEST(TracerRing, SpanAndTickFieldsRoundTrip) {
  Tracer t(8);
  t.span(Cycles{1000}, "compute", Pid{4}, Tgid{4}, Cycles{250}, Pid{9});
  t.tick(Cycles{2000}, Pid{4}, Tgid{4}, CpuMode::kKernel, 16);
  std::vector<TraceEvent> got;
  t.for_each([&](const TraceEvent& e) { got.push_back(e); });
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].kind, TraceEventKind::kSpan);
  EXPECT_EQ(got[0].arg, 250u);
  EXPECT_EQ(got[0].arg2, 9);
  EXPECT_EQ(got[1].kind, TraceEventKind::kTick);
  EXPECT_EQ(got[1].arg, 16u);
  EXPECT_EQ(static_cast<CpuMode>(got[1].mode), CpuMode::kKernel);
  EXPECT_EQ(got[1].arg2, -1);
}

// --- metrics aggregation ----------------------------------------------------------

TEST(KernelStatsTest, MergeSumsCountersAndMaxesGauge) {
  KernelStats a;
  a.events_popped = 10;
  a.timer_ticks = 5;
  a.max_event_queue_depth = 7;
  KernelStats b;
  b.events_popped = 3;
  b.timer_ticks = 2;
  b.stale_events = 1;
  b.max_event_queue_depth = 4;
  a.merge(b);
  EXPECT_EQ(a.events_popped, 13u);
  EXPECT_EQ(a.timer_ticks, 7u);
  EXPECT_EQ(a.stale_events, 1u);
  EXPECT_EQ(a.max_event_queue_depth, 7u);  // gauge: max, not sum
  b.max_event_queue_depth = 99;
  a.merge(b);
  EXPECT_EQ(a.max_event_queue_depth, 99u);
}

TEST(KernelStatsTest, ForEachVisitsAllCountersInFixedOrder) {
  KernelStats s;
  std::vector<std::string> names;
  s.for_each([&](const char* name, std::uint64_t) { names.emplace_back(name); });
  const std::vector<std::string> expected{
      "events_popped",    "idle_leaps",     "running_leaps",
      "ticks_coalesced",  "timer_ticks",    "charges_enqueued",
      "charge_flushes",   "context_switches", "stale_events",
      "max_event_queue_depth"};
  EXPECT_EQ(names, expected);
}

TEST(MetricsRegistryTest, AddAccumulatesAndMergePreservesOrder) {
  MetricsRegistry r;
  r.add("grid", 1, 0.5);
  r.add("io", 1, 0.25);
  r.add("grid", 2, 1.5);
  ASSERT_EQ(r.entries().size(), 2u);
  EXPECT_EQ(r.entries()[0].name, "grid");
  EXPECT_EQ(r.entries()[0].count, 3u);
  EXPECT_DOUBLE_EQ(r.entries()[0].seconds, 2.0);

  MetricsRegistry other;
  other.add("merge", 1, 0.1);
  other.add("grid", 1, 1.0);
  r.merge(other);
  ASSERT_EQ(r.entries().size(), 3u);
  EXPECT_EQ(r.entries()[0].name, "grid");  // insertion order stable
  EXPECT_EQ(r.entries()[0].count, 4u);
  EXPECT_EQ(r.entries()[2].name, "merge");
}

TEST(PoolMetricsTest, MergeMaxesThreadsSumsWallAndBusySlots) {
  PoolMetrics a;
  a.threads = 2;
  a.wall_seconds = 1.0;
  a.busy_seconds = {0.5, 0.25};
  PoolMetrics b;
  b.threads = 4;
  b.wall_seconds = 2.0;
  b.busy_seconds = {0.1, 0.2, 0.3, 0.4};
  a.merge(b);
  EXPECT_EQ(a.threads, 4u);
  EXPECT_DOUBLE_EQ(a.wall_seconds, 3.0);
  ASSERT_EQ(a.busy_seconds.size(), 4u);
  EXPECT_DOUBLE_EQ(a.busy_seconds[0], 0.6);
  EXPECT_DOUBLE_EQ(a.busy_seconds[1], 0.45);
  EXPECT_DOUBLE_EQ(a.busy_seconds[3], 0.4);
}

TEST(SweepMetricsTest, MergeSumsCountsAndMaxesStraggler) {
  SweepMetrics a;
  a.sweep = "fig04";
  a.cells = 2;
  a.runs = 6;
  a.cell_wall_seconds = 1.0;
  a.max_cell_seconds = 0.7;
  SweepMetrics b;
  b.cells = 3;
  b.runs = 9;
  b.cell_wall_seconds = 2.0;
  b.max_cell_seconds = 0.4;
  a.merge(b);
  EXPECT_EQ(a.cells, 5u);
  EXPECT_EQ(a.runs, 15u);
  EXPECT_DOUBLE_EQ(a.cell_wall_seconds, 3.0);
  EXPECT_DOUBLE_EQ(a.max_cell_seconds, 0.7);
}

// --- time series & telemetry ------------------------------------------------------

TEST(TimeSeriesTest, SamplesAggregateExactlyWithinOneBucket) {
  TimeSeries s;
  EXPECT_TRUE(s.empty());
  s.sample(0, 5);
  s.sample(100, -3);
  s.sample(TimeSeries::kBaseWidth - 1, 10);
  EXPECT_EQ(s.width(), TimeSeries::kBaseWidth);  // never halved
  ASSERT_EQ(s.size(), 1u);
  const SeriesBucket& b = s.bucket(0);
  EXPECT_EQ(b.count, 3u);
  EXPECT_EQ(b.min, -3);
  EXPECT_EQ(b.max, 10);
  EXPECT_EQ(b.sum, 12);
  EXPECT_EQ(s.samples(), 3u);
}

TEST(TimeSeriesTest, HalvesResolutionExactlyWhenSampleLandsPastTheEnd) {
  TimeSeries s;
  for (std::uint64_t i = 0; i < TimeSeries::kCapacity; ++i)
    s.sample(i * TimeSeries::kBaseWidth, static_cast<std::int64_t>(i));
  EXPECT_EQ(s.width(), TimeSeries::kBaseWidth);
  EXPECT_EQ(s.size(), TimeSeries::kCapacity);

  s.sample(TimeSeries::kCapacity * TimeSeries::kBaseWidth, 99);
  EXPECT_EQ(s.width(), 2 * TimeSeries::kBaseWidth);
  EXPECT_EQ(s.size(), TimeSeries::kCapacity / 2 + 1);
  // Adjacent pairs merged losslessly: bucket 0 now covers samples 0 and 1.
  EXPECT_EQ(s.bucket(0).count, 2u);
  EXPECT_EQ(s.bucket(0).min, 0);
  EXPECT_EQ(s.bucket(0).max, 1);
  EXPECT_EQ(s.bucket(0).sum, 1);
  EXPECT_EQ(s.bucket(TimeSeries::kCapacity / 2).count, 1u);
  EXPECT_EQ(s.bucket(TimeSeries::kCapacity / 2).sum, 99);
  EXPECT_EQ(s.samples(), TimeSeries::kCapacity + 1);
}

TEST(TimeSeriesTest, MergeEqualsSingleStreamForAnySplitAndEitherOrder) {
  // Deterministic pseudo-random samples spanning enough virtual time to
  // force several halvings on the combined stream.
  std::uint64_t x = 12345;
  const auto next = [&x] {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    return x;
  };
  TimeSeries whole, a, b;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t t = next() % (200 * TimeSeries::kBaseWidth);
    const std::int64_t v = static_cast<std::int64_t>(next() % 1000) - 500;
    whole.sample(t, v);
    (i % 3 == 0 ? a : b).sample(t, v);
  }
  // The two shards halved at different points, yet the fold is exact.
  TimeSeries ab = a;
  ab.merge(b);
  EXPECT_EQ(ab, whole);
  TimeSeries ba = b;
  ba.merge(a);
  EXPECT_EQ(ba, whole);
  // Merging an empty series is the identity.
  TimeSeries id = whole;
  id.merge(TimeSeries{});
  EXPECT_EQ(id, whole);
  TimeSeries onto_empty;
  onto_empty.merge(whole);
  EXPECT_EQ(onto_empty, whole);
}

TEST(TimeSeriesTest, LoadRebuildsTheExactBucketLayout) {
  TimeSeries s;
  for (std::uint64_t i = 0; i < 300; ++i)
    s.sample(i * TimeSeries::kBaseWidth, static_cast<std::int64_t>(i % 7));
  std::vector<SeriesBucket> rows;
  for (std::size_t i = 0; i < s.size(); ++i) rows.push_back(s.bucket(i));
  TimeSeries rebuilt;
  rebuilt.load(s.width(), rows);  // what the metrics.json parser does
  EXPECT_EQ(rebuilt, s);
}

TEST(TelemetryTest, MergeFoldsEverySeriesAndSketch) {
  Telemetry a, b;
  EXPECT_TRUE(a.empty());
  a.run_queue.sample(0, 1);
  a.billing_error.add(0.5);
  b.run_queue.sample(0, 3);
  b.free_frames.sample(0, 100);
  b.billing_error.add(-0.5);
  b.charge_batch.add(16.0);
  a.merge(b);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a.run_queue.samples(), 2u);
  EXPECT_EQ(a.run_queue.bucket(0).sum, 4);
  EXPECT_EQ(a.free_frames.samples(), 1u);
  EXPECT_EQ(a.billing_error.count(), 2u);
  EXPECT_EQ(a.charge_batch.count(), 1u);
}

TEST(MetricsJson, WriterEmitsSchemaAndFullCounterBlock) {
  SweepMetrics s;
  s.sweep = "fig04";
  s.cells = 1;
  s.runs = 2;
  s.kernel.timer_ticks = 42;
  s.phases.add("grid", 1, 0.125);
  s.pool.threads = 2;
  s.pool.busy_seconds = {0.5, 0.25};
  s.telemetry.run_queue.sample(0, 2);
  s.telemetry.billing_error.add(0.25);
  std::ostringstream os;
  write_metrics_json(os, {s}, /*shards=*/3);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"schema\": 2"), std::string::npos);
  EXPECT_NE(out.find("\"record\": \"metrics\""), std::string::npos);
  EXPECT_NE(out.find("\"shards\": 3"), std::string::npos);
  EXPECT_NE(out.find("\"sweep\": \"fig04\""), std::string::npos);
  EXPECT_NE(out.find("\"timer_ticks\": 42"), std::string::npos);
  // Every counter appears even when zero — parsers key on the full set.
  KernelStats names;
  names.for_each([&](const char* name, std::uint64_t) {
    EXPECT_NE(out.find(std::string("\"") + name + "\":"), std::string::npos)
        << "missing counter " << name;
  });
  EXPECT_NE(out.find("{\"name\": \"grid\", \"count\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"threads\": 2"), std::string::npos);
  // v2 telemetry sections: every series and sketch appears even when
  // empty, with [count, min, max, sum] integer bucket rows.
  EXPECT_NE(out.find("\"run_queue\": {\"width\": "), std::string::npos);
  EXPECT_NE(out.find("\"buckets\": [[1, 2, 2, 2]]"), std::string::npos);
  EXPECT_NE(out.find("\"event_depth\": {\"width\": "), std::string::npos);
  EXPECT_NE(out.find("\"billing_error\": {\"count\": 1"), std::string::npos);
  EXPECT_NE(out.find("\"cell_seconds\": {\"count\": 0"), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
}

// --- perfetto exporter ------------------------------------------------------------

TEST(PerfettoExport, EmitsTracksSpansInstantsCountersAndAccounting) {
  Tracer t(64);
  // One victim span + tick, one instant on another pid.
  t.span(Cycles{2'530}, "user-compute", Pid{2}, Tgid{2}, Cycles{2'530}, Pid{-1});
  t.tick(Cycles{2'530}, Pid{2}, Tgid{2}, CpuMode::kUser, 1);
  t.instant(Cycles{3'000}, "switch-out", Pid{3}, Tgid{3});

  ExportInfo info;
  info.label = "unit/baseline";
  info.cpu = CpuHz{2'530'000'000};
  info.hz = TimerHz{250};
  info.victim = Tgid{2};
  info.process_names = {{Pid{2}, "victim"}, {Pid{3}, "other"}};

  std::ostringstream os;
  write_perfetto_json(os, t, info);
  const std::string out = os.str();

  EXPECT_NE(out.find("\"schema\": \"mtr-trace-1\""), std::string::npos);
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("victim (pid 2)"), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(out.find("\"victim cpu-seconds\""), std::string::npos);
  EXPECT_NE(out.find("\"recorded\": 3"), std::string::npos);
  EXPECT_NE(out.find("\"dropped\": 0"), std::string::npos);
  // billed: one tick at 250 Hz = 4 ms; true: 2530 cycles at 2.53 GHz = 1 µs.
  EXPECT_NE(out.find("\"billed\": 0.004"), std::string::npos);
  // Terminator instant keeps the array well-formed without trailing commas.
  EXPECT_NE(out.find("\"name\": \"trace-export\"}\n]"), std::string::npos);
}

TEST(PerfettoExport, NoCounterTrackWithoutAVictim) {
  Tracer t(8);
  t.tick(Cycles{100}, Pid{2}, Tgid{2}, CpuMode::kUser, 1);
  ExportInfo info;
  info.label = "unit";
  info.cpu = CpuHz{1'000'000};
  info.hz = TimerHz{250};  // victim left invalid
  std::ostringstream os;
  write_perfetto_json(os, t, info);
  EXPECT_EQ(os.str().find("\"ph\": \"C\""), std::string::npos);
}

TEST(PerfettoExport, CategoryTagsEventsOnlyWhenSet) {
  Tracer t(8);
  t.instant(Cycles{100}, "switch-out", Pid{2}, Tgid{2});
  ExportInfo info;
  info.label = "unit";
  info.cpu = CpuHz{1'000'000};
  info.hz = TimerHz{250};

  std::ostringstream plain;
  write_perfetto_json(plain, t, info);
  EXPECT_EQ(plain.str().find("\"cat\""), std::string::npos);

  info.category = "spin-sleep";
  std::ostringstream tagged;
  write_perfetto_json(tagged, t, info);
  EXPECT_NE(tagged.str().find("\"cat\": \"spin-sleep\""), std::string::npos);
  // The category rides inside each event object; the terminator is still
  // the last element and "name" its last key.
  EXPECT_NE(tagged.str().find("\"name\": \"trace-export\"}\n]"),
            std::string::npos);
}

TEST(PerfettoExport, TelemetrySeriesBecomeCounterTracks) {
  Tracer t(8);
  t.instant(Cycles{100}, "switch-out", Pid{2}, Tgid{2});
  ExportInfo info;
  info.label = "unit";
  info.cpu = CpuHz{1'000'000};
  info.hz = TimerHz{250};

  Telemetry tel;
  tel.run_queue.sample(0, 3);
  tel.run_queue.sample(1, 5);
  std::ostringstream os;
  write_perfetto_json(os, t, info, &tel);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"name\": \"series:run_queue\""), std::string::npos);
  EXPECT_NE(out.find("\"avg\": 4"), std::string::npos);
  EXPECT_NE(out.find("\"max\": 5"), std::string::npos);
  // Empty series contribute no track.
  EXPECT_EQ(out.find("series:free_frames"), std::string::npos);

  // Null telemetry (the default) emits none at all.
  std::ostringstream off;
  write_perfetto_json(off, t, info);
  EXPECT_EQ(off.str().find("series:"), std::string::npos);
}

}  // namespace
}  // namespace mtr::trace

// --- observability end-to-end against run_experiment ------------------------------

namespace mtr::core {
namespace {

using workloads::WorkloadKind;

TEST(TracedExperiment, StatsOnlyRunMatchesUntracedResultsExactly) {
  const auto cfg = test::quick_experiment(WorkloadKind::kPi, 0.01);
  const auto plain = run_experiment(cfg);

  auto traced_cfg = cfg;
  traced_cfg.trace.collect_stats = true;
  const auto traced = run_experiment(traced_cfg);

  // Observability must not perturb a single result field.
  EXPECT_EQ(traced.billed_ticks.utime.v, plain.billed_ticks.utime.v);
  EXPECT_EQ(traced.billed_ticks.stime.v, plain.billed_ticks.stime.v);
  EXPECT_EQ(traced.true_cycles.user.v, plain.true_cycles.user.v);
  EXPECT_EQ(traced.true_cycles.system.v, plain.true_cycles.system.v);
  EXPECT_DOUBLE_EQ(traced.overcharge, plain.overcharge);

  // The stats sink saw the run; the untraced run collected nothing.
  EXPECT_GT(traced.kstats.timer_ticks, 0u);
  EXPECT_GT(traced.kstats.charge_flushes, 0u);
  EXPECT_GT(traced.kstats.context_switches, 0u);
  EXPECT_LE(traced.kstats.ticks_coalesced, traced.kstats.timer_ticks);
  EXPECT_EQ(plain.kstats.timer_ticks, 0u);
  // Stats-only runs record no trace events.
  EXPECT_EQ(traced.trace_events_recorded, 0u);

  // Telemetry rides the same gate: populated when observing, untouched
  // otherwise.
  EXPECT_FALSE(traced.telemetry.empty());
  EXPECT_GT(traced.telemetry.runnable.samples(), 0u);
  EXPECT_GT(traced.telemetry.billing_error.count(), 0u);
  EXPECT_TRUE(plain.telemetry.empty());
}

TEST(TracedExperiment, TraceFileIsWrittenAndWellFormed) {
  const auto dir = std::filesystem::temp_directory_path() / "mtr-trace-test";
  std::filesystem::create_directories(dir);
  const auto path = dir / "run.json";

  auto cfg = test::quick_experiment(WorkloadKind::kPi, 0.01);
  cfg.trace.path = path.string();
  cfg.trace.ring_capacity = 1 << 12;
  const auto r = run_experiment(cfg);

  EXPECT_GT(r.trace_events_recorded, 0u);
  EXPECT_GE(r.trace_events_recorded, r.trace_events_dropped);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file missing: " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string out = buf.str();
  EXPECT_NE(out.find("\"schema\": \"mtr-trace-1\""), std::string::npos);
  EXPECT_NE(out.find("P/baseline"), std::string::npos);  // default label
  EXPECT_NE(out.find("\"victim cpu-seconds\""), std::string::npos);
  EXPECT_NE(out.find("\"recorded\": " +
                     std::to_string(r.trace_events_recorded)),
            std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(TracedExperiment, TinyRingDropsButStillExports) {
  const auto dir = std::filesystem::temp_directory_path() / "mtr-trace-tiny";
  std::filesystem::create_directories(dir);
  const auto path = dir / "tiny.json";

  auto cfg = test::quick_experiment(WorkloadKind::kPi, 0.01);
  cfg.trace.path = path.string();
  cfg.trace.ring_capacity = 8;  // force wrap
  const auto r = run_experiment(cfg);

  EXPECT_GT(r.trace_events_dropped, 0u);
  EXPECT_EQ(r.trace_events_dropped, r.trace_events_recorded - 8);
  EXPECT_TRUE(std::filesystem::exists(path));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mtr::core
