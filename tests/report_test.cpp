// Report-layer coverage: sink round-trips (every ExperimentResult field
// survives CSV and JSONL serialization), append safety, MultiSink fan-out,
// the shared cell-record emitter, the cell key (grid coordinates to record
// columns, strict per-type parsing, first-difference naming), the sweep
// registry and the sweep context's two passes, CSV escaping, and the
// progress reporter. The CLI driver moved
// to src/dist and is covered by dist_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>

#include "common/ensure.hpp"
#include "helpers.hpp"
#include "report/progress.hpp"
#include "report/result_sink.hpp"
#include "report/sweep.hpp"

namespace mtr::report {
namespace {

/// A fully populated cell with two replicate runs of distinctive values —
/// no simulation needed, so the round-trip checks stay instant.
core::CellStats sample_cell() {
  core::CellStats cell;
  cell.attack_label = "shell, \"quoted\"";  // exercises CSV/JSON escaping
  cell.scheduler = sim::SchedulerKind::kCfs;
  cell.hz = TimerHz{1000};
  cell.cpu = CpuHz{1'600'000'000};
  cell.ram = {4 * 1024, 64};
  cell.ptrace = kernel::PtracePolicy::kPrivilegedOnly;
  cell.jiffy_timers = false;
  cell.cell_index = 5;
  cell.seeds = {7, 8};
  for (std::uint64_t i = 0; i < 2; ++i) {
    core::ExperimentResult r;
    r.kind = workloads::WorkloadKind::kWhetstone;
    r.attack_name = "shell";
    r.victim_pid = Pid{4};
    r.victim_tgid = Tgid{4};
    r.victim_exited = true;
    r.wall_seconds = 12.5 + static_cast<double>(i);
    r.billed_ticks = {Ticks{3000 + i}, Ticks{41 + i}};
    r.billed_user_seconds = 3.0 + 0.125 * static_cast<double>(i);
    r.billed_system_seconds = 0.041;
    r.billed_seconds = r.billed_user_seconds + r.billed_system_seconds;
    r.true_cycles = {Cycles{7'590'000'000 + i}, Cycles{103'730'000}};
    r.true_seconds = 3.0410001;
    r.tsc_cycles = {Cycles{7'600'000'000}, Cycles{104'000'000}};
    r.tsc_seconds = 3.0451;
    r.pais_cycles = {Cycles{7'590'000'001}, Cycles{103'730'001}};
    r.pais_seconds = 3.0410002;
    r.overcharge = 1.0 / 3.0;  // forces a long %.17g representation
    r.source_verdict.ok = false;
    r.source_verdict.violations = {"bash (deadbeef)", "libm (cafe, 2)"};
    r.witness.bytes[0] = 0xab;
    r.witness.bytes[31] = 0x01;
    r.witness_steps = 123'456'789;
    r.minor_faults = 12;
    r.major_faults = 3;
    r.debug_exceptions = 99;
    r.voluntary_switches = 7;
    r.involuntary_switches = 11;
    r.nic_packets = 1'000'000;
    r.has_attacker = true;
    r.attacker_ticks = {Ticks{17}, Ticks{19}};
    r.attacker_billed_seconds = 0.144;
    r.attacker_true_cycles = {Cycles{100}, Cycles{200}};
    r.attacker_true_seconds = 0.000000118577;
    cell.runs.push_back(r);
    cell.for_each_stat(
        [&](const char*, RunningStats& stat, auto get) { stat.add(get(r)); });
  }
  return cell;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// The value of `"key":<raw json>` in a JSONL line (first occurrence).
std::string json_raw_value(const std::string& line, std::string_view key) {
  std::string needle = "\"";
  needle += key;
  needle += "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return "<missing>";
  std::size_t i = at + needle.size();
  if (line[i] == '"') {  // string: scan to the closing unescaped quote
    std::string out;
    for (++i; i < line.size(); ++i) {
      if (line[i] == '\\') {
        out += line[i + 1] == 'n' ? '\n' : line[i + 1];
        ++i;
      } else if (line[i] == '"') {
        break;
      } else {
        out += line[i];
      }
    }
    return out;
  }
  std::size_t end = i;
  while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  return line.substr(i, end - i);
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(ResultSinkSchema, KeysAreUniqueAndVersioned) {
  const auto keys = run_schema_keys();
  EXPECT_GT(keys.size(), 40u);  // every ExperimentResult field + coordinates
  EXPECT_EQ(keys.front(), "schema");
  for (std::size_t i = 0; i < keys.size(); ++i)
    for (std::size_t j = i + 1; j < keys.size(); ++j)
      EXPECT_NE(keys[i], keys[j]) << "duplicate column " << keys[i];
}

TEST(ResultSinkSchema, ScenarioCoordinatesSitBeforeTheSeed) {
  const auto keys = run_schema_keys();
  // The scenario-axis coordinates sit with the other cell coordinates.
  const auto at = [&](const std::string& key) {
    return static_cast<std::size_t>(
        std::find(keys.begin(), keys.end(), key) - keys.begin());
  };
  EXPECT_LT(at("hz"), at("cpu_hz"));
  EXPECT_LT(at("cpu_hz"), at("ram_frames"));
  EXPECT_LT(at("ram_frames"), at("reclaim_batch"));
  EXPECT_LT(at("reclaim_batch"), at("ptrace"));
  EXPECT_LT(at("ptrace"), at("jiffy_timers"));
  EXPECT_LT(at("jiffy_timers"), at("seed"));
}

TEST(CsvEscapeTest, QuotesOnlyWhatRfc4180NeedsAndSplitsBack) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"plain", "plain"},
      {"als0 plain; semicolons+spaces are fine",
       "als0 plain; semicolons+spaces are fine"},
      {"", ""},
      {"has,comma", "\"has,comma\""},
      {"has\"quote", "\"has\"\"quote\""},
      {"\"", "\"\"\"\""},  // a lone quote: open, doubled quote, close
      {"a\"b\"c", "\"a\"\"b\"\"c\""},
      {"line1\nline2", "\"line1\nline2\""},  // the newline survives verbatim
      {"a,\"b\"\nc", "\"a,\"\"b\"\"\nc\""},
  };
  std::string row;
  std::vector<std::string> cells;
  for (const auto& [raw, escaped] : cases) {
    EXPECT_EQ(csv_escape(raw), escaped) << raw;
    if (!cells.empty()) row += ',';
    row += escaped;
    cells.push_back(raw);
  }
  EXPECT_EQ(split_csv_line(row), cells);  // one row of them reads back
}

TEST(SketchCodecTest, EncodeDecodeRoundTripsExactly) {
  QuantileSketch s;
  s.add(0.0);
  s.add(0.0);
  s.add(1.0 / 3.0);            // long %.17g bucket bounds
  s.add(-2.5e-7);              // negative store
  s.add(1.0e9);                // far positive bucket
  for (int i = 0; i < 100; ++i) s.add(0.001 * i);
  const std::optional<QuantileSketch> back = decode_sketch(encode_sketch(s));
  ASSERT_TRUE(back.has_value());
  EXPECT_TRUE(*back == s);
  // Re-encoding the decoded sketch is byte-stable — what makes mtr_merge's
  // recomputed cell lines byte-identical to the original writer's.
  EXPECT_EQ(encode_sketch(*back), encode_sketch(s));

  const std::optional<QuantileSketch> empty = decode_sketch(encode_sketch({}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(SketchCodecTest, MalformedTokensAreRejected) {
  for (const char* bad :
       {"", "1;2", "x;0;0;0;;", "2;0;0;1;0:1 1:x;", "2;0;0;1;0:1;0:1;extra",
        "2;1;0;0;;", "1;1;5;3;;"}) {
    EXPECT_FALSE(decode_sketch(bad).has_value()) << "'" << bad << "'";
  }
}

TEST(ResultSinkGrowth, CellRecordsStayBoundedAtTenThousandTenants) {
  // The population refactor's growth guard: sink output is per-run and
  // per-cell, never per-tenant. A 10^4-tenant cell must emit the same
  // number of rows as a 1-tenant cell, and its record bytes must stay
  // bounded by the sketch bucket structure, not the tenant count.
  const auto populated_cell = [](std::uint32_t tenants) {
    core::CellStats cell = sample_cell();
    cell.population = tenants;
    cell.attacker_fraction = 0.25;
    for (core::ExperimentResult& r : cell.runs) {
      r.pop_tenants = tenants;
      for (std::uint32_t i = 0; i < tenants; ++i) {
        // Spread over several decades so the sketches actually fill.
        const double v = 1e-6 * static_cast<double>(i + 1);
        r.pop_billing_error.add(i % 2 ? v : -v);
        r.pop_billed_seconds.add(3.0 + v);
        r.pop_true_seconds.add(3.0);
        r.pop_attacker_advantage.add(v);
      }
    }
    cell.for_each_sketch([&](const char*, QuantileSketch& sketch, auto get) {
      for (const core::ExperimentResult& r : cell.runs) sketch.merge(get(r));
    });
    return cell;
  };

  const auto emitted = [](const core::CellStats& cell) {
    std::ostringstream csv_os, jsonl_os;
    CsvSink csv(csv_os);
    JsonlSink jsonl(jsonl_os);
    csv.write_cell("pop", cell);
    jsonl.write_cell("pop", cell);
    return std::pair{csv_os.str(), jsonl_os.str()};
  };

  const auto [csv_small, jsonl_small] = emitted(populated_cell(100));
  const auto [csv_big, jsonl_big] = emitted(populated_cell(10'000));

  // Row counts are a function of seeds, not tenants.
  EXPECT_EQ(lines_of(csv_big).size(), 1u + 2u);     // header + one row/seed
  EXPECT_EQ(lines_of(jsonl_big).size(), 2u + 1u);   // runs + cell summary
  EXPECT_EQ(lines_of(csv_big).size(), lines_of(csv_small).size());
  EXPECT_EQ(lines_of(jsonl_big).size(), lines_of(jsonl_small).size());

  // 100x the tenants must not cost anywhere near 100x the bytes: the only
  // growth is sketch buckets, log-bounded by the value range.
  EXPECT_LT(csv_big.size(), 4 * csv_small.size());
  EXPECT_LT(jsonl_big.size(), 4 * jsonl_small.size());
  EXPECT_LT(csv_big.size(), 64u * 1024u);
  EXPECT_LT(jsonl_big.size(), 64u * 1024u);
}

TEST(CsvSinkTest, RoundTripsEveryField) {
  const core::CellStats cell = sample_cell();
  std::ostringstream os;
  CsvSink sink(os);
  sink.write_cell("fig04", cell);

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 3u);  // header + 2 runs
  const auto header = split_csv_line(lines[0]);
  ASSERT_EQ(header, run_schema_keys());

  for (std::size_t seed_i = 0; seed_i < 2; ++seed_i) {
    const auto row = split_csv_line(lines[1 + seed_i]);
    ASSERT_EQ(row.size(), header.size());
    const auto fields = flatten_run("fig04", cell, seed_i);
    ASSERT_EQ(fields.size(), row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      // Strings survive escaping; numbers re-parse to the exact value
      // (doubles render as %.17g, which round-trips binary64).
      const FieldValue& v = fields[c].value;
      if (const auto* s = std::get_if<std::string>(&v)) {
        EXPECT_EQ(row[c], *s) << header[c];
      } else if (const auto* d = std::get_if<double>(&v)) {
        EXPECT_EQ(std::strtod(row[c].c_str(), nullptr), *d) << header[c];
      } else if (const auto* u = std::get_if<std::uint64_t>(&v)) {
        EXPECT_EQ(std::strtoull(row[c].c_str(), nullptr, 10), *u) << header[c];
      } else if (const auto* i = std::get_if<std::int64_t>(&v)) {
        EXPECT_EQ(std::strtoll(row[c].c_str(), nullptr, 10), *i) << header[c];
      } else {
        EXPECT_EQ(row[c], std::get<bool>(v) ? "true" : "false") << header[c];
      }
    }
  }

  // Spot-check load-bearing cells against the source struct directly.
  const auto row0 = split_csv_line(lines[1]);
  const auto col = [&](const std::string& key) {
    for (std::size_t c = 0; c < header.size(); ++c)
      if (header[c] == key) return row0[c];
    return std::string("<missing>");
  };
  EXPECT_EQ(col("sweep"), "fig04");
  EXPECT_EQ(col("attack"), "shell, \"quoted\"");
  EXPECT_EQ(col("scheduler"), "cfs");
  EXPECT_EQ(col("hz"), "1000");
  EXPECT_EQ(col("cpu_hz"), "1600000000");
  EXPECT_EQ(col("ram_frames"), "4096");
  EXPECT_EQ(col("reclaim_batch"), "64");
  EXPECT_EQ(col("ptrace"), "privileged_only");
  EXPECT_EQ(col("jiffy_timers"), "false");
  EXPECT_EQ(col("seed"), "7");
  EXPECT_EQ(col("workload"), "W");
  EXPECT_EQ(col("billed_utime_ticks"), "3000");
  EXPECT_EQ(col("source_ok"), "false");
  EXPECT_EQ(col("source_violations"), "bash (deadbeef); libm (cafe, 2)");
  EXPECT_EQ(std::strtod(col("overcharge").c_str(), nullptr), 1.0 / 3.0);
  EXPECT_EQ(col("witness").substr(0, 2), "ab");
}

TEST(JsonlSinkTest, RoundTripsRunsAndCellSummary) {
  const core::CellStats cell = sample_cell();
  std::ostringstream os;
  JsonlSink sink(os);
  sink.write_cell("fig07", cell);

  const auto lines = lines_of(os.str());
  ASSERT_EQ(lines.size(), 3u);  // 2 run records + 1 cell record
  EXPECT_EQ(json_raw_value(lines[0], "record"), "run");
  EXPECT_EQ(json_raw_value(lines[1], "record"), "run");
  EXPECT_EQ(json_raw_value(lines[2], "record"), "cell");

  // Every schema key appears on every run line with the exact value.
  for (std::size_t seed_i = 0; seed_i < 2; ++seed_i) {
    const std::string& line = lines[seed_i];
    for (const Field& f : flatten_run("fig07", cell, seed_i)) {
      const std::string raw = json_raw_value(line, f.key);
      ASSERT_NE(raw, "<missing>") << f.key;
      if (const auto* s = std::get_if<std::string>(&f.value)) {
        EXPECT_EQ(raw, *s) << f.key;
      } else if (const auto* d = std::get_if<double>(&f.value)) {
        EXPECT_EQ(std::strtod(raw.c_str(), nullptr), *d) << f.key;
      } else if (const auto* u = std::get_if<std::uint64_t>(&f.value)) {
        EXPECT_EQ(std::strtoull(raw.c_str(), nullptr, 10), *u) << f.key;
      } else if (const auto* i = std::get_if<std::int64_t>(&f.value)) {
        EXPECT_EQ(std::strtoll(raw.c_str(), nullptr, 10), *i) << f.key;
      } else {
        EXPECT_EQ(raw, std::get<bool>(f.value) ? "true" : "false") << f.key;
      }
    }
  }

  // The cell summary carries the aggregates a figure plots, plus (since
  // schema v3) the scenario-axis coordinates.
  const std::string& summary = lines[2];
  EXPECT_EQ(json_raw_value(summary, "sweep"), "fig07");
  EXPECT_EQ(json_raw_value(summary, "workload"), "W");
  EXPECT_EQ(json_raw_value(summary, "seeds"), "2");
  EXPECT_EQ(json_raw_value(summary, "source_ok"), "false");
  EXPECT_EQ(json_raw_value(summary, "cpu_hz"), "1600000000");
  EXPECT_EQ(json_raw_value(summary, "ram_frames"), "4096");
  EXPECT_EQ(json_raw_value(summary, "reclaim_batch"), "64");
  EXPECT_EQ(json_raw_value(summary, "ptrace"), "privileged_only");
  EXPECT_EQ(json_raw_value(summary, "jiffy_timers"), "false");
  EXPECT_NE(summary.find("\"overcharge\":{\"n\":2,"), std::string::npos);
  EXPECT_NE(summary.find("\"attacker_true_seconds\":{"), std::string::npos);
}

TEST(CsvSinkTest, AppendModeWritesHeaderExactlyOnce) {
  const std::string path = temp_path("report_test_append.csv");
  std::filesystem::remove(path);
  const core::CellStats cell = sample_cell();
  {
    CsvSink sink(path, OpenMode::kAppend);  // fresh file: header + 2 rows
    sink.write_cell("s1", cell);
  }
  {
    CsvSink sink(path, OpenMode::kAppend);  // reopened: rows only
    sink.write_cell("s2", cell);
    sink.write_cell("s3", cell);
  }
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  const auto lines = lines_of(content.str());
  EXPECT_EQ(lines.size(), 1u + 3 * 2);
  EXPECT_EQ(split_csv_line(lines[0]), run_schema_keys());
  for (std::size_t i = 1; i < lines.size(); ++i)
    EXPECT_NE(split_csv_line(lines[i])[0], "schema") << "duplicated header";
  std::filesystem::remove(path);
}

TEST(CsvSinkTest, TruncateModeStartsFresh) {
  const std::string path = temp_path("report_test_trunc.csv");
  const core::CellStats cell = sample_cell();
  for (int round = 0; round < 2; ++round) {
    CsvSink sink(path, OpenMode::kTruncate);
    sink.write_cell("s", cell);
  }
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(lines_of(content.str()).size(), 1u + 2);  // not doubled
  std::filesystem::remove(path);
}

TEST(MultiSinkTest, FansOutToEveryChildInOrder) {
  auto csv_a = std::make_unique<std::ostringstream>();
  auto csv_b = std::make_unique<std::ostringstream>();
  std::ostringstream ref;

  MultiSink multi;
  EXPECT_TRUE(multi.empty());
  multi.add(std::make_unique<CsvSink>(*csv_a));
  multi.add(std::make_unique<CsvSink>(*csv_b));
  EXPECT_EQ(multi.size(), 2u);

  const core::CellStats cell = sample_cell();
  multi.write_cell("fig04", cell);
  CsvSink(ref).write_cell("fig04", cell);
  EXPECT_EQ(csv_a->str(), ref.str());
  EXPECT_EQ(csv_b->str(), ref.str());
}

TEST(SweepRegistryTest, AddFindAndRejectDuplicates) {
  SweepRegistry registry;
  registry.add({"fig04", "t1", [](const SweepContext&) {}});
  registry.add({"fig05", "t2", [](const SweepContext&) {}});
  ASSERT_NE(registry.find("fig04"), nullptr);
  EXPECT_EQ(registry.find("fig04")->title, "t1");
  EXPECT_EQ(registry.find("nope"), nullptr);
  EXPECT_EQ(registry.specs().size(), 2u);
  EXPECT_THROW((registry.add({"fig04", "dup", [](const SweepContext&) {}})),
               InvariantError);
}

/// Records the (sweep, cell_index) of every cell a context streams.
class CaptureSink final : public ResultSink {
 public:
  void write_cell(const std::string& sweep, const core::CellStats& cell) override {
    cells.emplace_back(sweep, cell.cell_index);
  }
  std::vector<std::pair<std::string, std::uint64_t>> cells;
};

/// One seed, one cell per scheduler: two cells.
core::BatchGrid two_cell_grid(const SweepContext& ctx) {
  core::BatchGrid grid;
  grid.base = test::quick_experiment(workloads::WorkloadKind::kOurs, ctx.scale);
  grid.seeds = ctx.seeds;
  grid.schedulers = {sim::SchedulerKind::kO1, sim::SchedulerKind::kCfs};
  return grid;
}

TEST(SweepContextTest, WithoutAPoolSlotRunGridRunsOnTheSpot) {
  CaptureSink sink;
  std::size_t cursor = 3;
  SweepContext ctx;
  ctx.scale = 0.02;
  ctx.seeds = {7};
  ctx.threads = 2;
  ctx.sink = &sink;
  ctx.cell_cursor = &cursor;
  const std::vector<core::CellStats> cells = ctx.run_grid("solo", two_cell_grid(ctx));
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[1].cell_index, 4u);
  EXPECT_EQ(cursor, 5u);
  using Streamed = std::pair<std::string, std::uint64_t>;
  EXPECT_EQ(sink.cells, (std::vector<Streamed>{{"solo", 3}, {"solo", 4}}));
}

TEST(SweepContextTest, PlanPassQueuesGridsAndRenderPassHandsTheirCellsBack) {
  SweepGrids slot;
  SweepContext plan;
  plan.scale = 0.02;
  plan.seeds = {7};
  plan.grids = &slot;
  plan.begin_progress("pair", 4);
  EXPECT_TRUE(plan.run_grid("pair", two_cell_grid(plan)).empty());
  EXPECT_TRUE(plan.run_grid("pair", two_cell_grid(plan)).empty());
  ASSERT_EQ(slot.queued.size(), 2u);
  EXPECT_EQ(slot.queued[1].sweep, "pair");
  // Numbering and gating are the driver's (dist_test pins them).
  EXPECT_EQ(slot.queued[1].grid.cell_index_base, 0u);
  EXPECT_EQ(slot.progress_label, "pair");
  EXPECT_EQ(slot.progress_total, 4u);

  // Stand in for the driver: number the grids, refuse cell 1, run the pool.
  std::vector<core::BatchGrid> grids;
  for (const SweepGrids::Queued& q : slot.queued) grids.push_back(q.grid);
  grids[0].cell_filter = [](std::size_t i) { return i != 1; };
  grids[1].cell_index_base = 2;
  slot.runs = core::BatchRunner(2).run(grids);

  SweepContext render = plan;
  render.render = true;
  render.begin_progress("ignored", 99);
  EXPECT_EQ(slot.progress_label, "pair");
  const std::vector<core::CellStats> first = render.run_grid("pair", two_cell_grid(render));
  ASSERT_EQ(first.size(), 1u);  // the filter refused cell 1
  EXPECT_EQ(first[0].cell_index, 0u);
  const std::vector<core::CellStats> second = render.run_grid("pair", two_cell_grid(render));
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[1].cell_index, 3u);
  EXPECT_EQ(slot.queued.size(), 2u);  // the render pass queues nothing
  EXPECT_THROW(render.run_grid("pair", two_cell_grid(render)), InvariantError);

  const trace::PoolMetrics pool = slot.pool();
  EXPECT_EQ(pool.threads, 2u);
  EXPECT_GT(pool.wall_seconds, 0.0);
  EXPECT_EQ(pool.busy_seconds.size(), 2u);
}

TEST(CellRecordTest, SummaryMatchesJsonlSinkOutput) {
  // append_cell_record over summarize_cell must reproduce exactly the cell
  // line JsonlSink emits — mtr_merge leans on this emitter for
  // byte-identical merged aggregates.
  const core::CellStats cell = sample_cell();
  std::ostringstream sink_os;
  JsonlSink(sink_os).write_cell("fig07", cell);
  const auto lines = lines_of(sink_os.str());
  ASSERT_EQ(lines.size(), 3u);

  std::string record = "prefix";
  append_cell_record(record, summarize_cell("fig07", cell));
  EXPECT_EQ(record, "prefix" + lines[2] + "\n");
  EXPECT_EQ(json_raw_value(lines[2], "cell_index"), "5");
}

/// sample_cell with the population coordinates off their defaults too.
core::CellStats keyed_cell() {
  core::CellStats cell = sample_cell();
  cell.population = 4096;
  cell.attacker_fraction = 0.1;
  cell.nice = {Nice{-5}, Nice{7}};
  return cell;
}

/// A key with every column off its default.
CellKey sample_key() {
  const core::CellStats cell = keyed_cell();
  return cell_key("fig07", cell.cell_index, cell);
}

TEST(CellKeyTest, GridCoordinatesBecomeTheRecordColumns) {
  const CellKey key = sample_key();
  EXPECT_EQ(key.sweep, "fig07");
  EXPECT_EQ(key.cell_index, 5u);
  EXPECT_EQ(key.attack, "shell, \"quoted\"");
  EXPECT_EQ(key.scheduler, "cfs");
  EXPECT_EQ(key.hz, 1000u);
  EXPECT_EQ(key.cpu_hz, 1'600'000'000u);
  EXPECT_EQ(key.ram_frames, 4096u);
  EXPECT_EQ(key.reclaim_batch, 64u);
  EXPECT_EQ(key.ptrace,
            kernel::to_string(kernel::PtracePolicy::kPrivilegedOnly));
  EXPECT_FALSE(key.jiffy_timers);
  EXPECT_EQ(key.population, 4096u);
  EXPECT_EQ(key.attacker_fraction, 0.1);
  EXPECT_EQ(key.victim_nice, -5);
  EXPECT_EQ(key.attacker_nice, 7);
  EXPECT_EQ(describe(key),
            "cell 5 [sweep=fig07, attack=shell, \"quoted\", scheduler=cfs, "
            "hz=1000]");

  // The run record carries every key column under its table name.
  const std::vector<Field> fields = flatten_run("fig07", keyed_cell(), 0);
  for (const CellKeyColumn& col : kCellKeyColumns) {
    const auto it =
        std::find_if(fields.begin(), fields.end(),
                     [&](const Field& f) { return f.key == col.name; });
    ASSERT_NE(it, fields.end()) << col.name;
    EXPECT_EQ(it->value, col.value(key)) << col.name;
  }
}

TEST(CellKeyTest, EveryColumnRoundTripsThroughItsRecordText) {
  const CellKey key = sample_key();
  CellKey back;
  for (const CellKeyColumn& col : kCellKeyColumns) {
    // split_csv_line undoes the CSV quoting the way the scanner does.
    std::string text;
    append_csv(text, col.value(key));
    const std::vector<std::string> cells = split_csv_line(text);
    ASSERT_EQ(cells.size(), 1u) << col.name;
    EXPECT_TRUE(col.parse(back, cells[0])) << col.name;
  }
  EXPECT_EQ(back, key);
  EXPECT_EQ(first_difference(back, key), nullptr);
}

TEST(CellKeyTest, ParsingIsStrictPerColumnType) {
  const auto column = [](std::string_view name) {
    for (const CellKeyColumn& col : kCellKeyColumns)
      if (col.name == name) return col;
    ADD_FAILURE() << "no column " << name;
    return kCellKeyColumns[0];
  };
  CellKey key;
  const CellKeyColumn fraction = column("attacker_fraction");
  for (const char* good : {"0", "0.25", "-0", "1e-3", "0.10000000000000001"})
    EXPECT_TRUE(fraction.parse(key, good)) << "'" << good << "'";
  for (const char* bad : {"0x0p0", " 0", "0 ", "nan", "-nan", "inf", "-inf",
                          "1e400", "+1", ""})
    EXPECT_FALSE(fraction.parse(key, bad)) << "'" << bad << "'";

  const CellKeyColumn hz = column("hz");
  EXPECT_TRUE(hz.parse(key, "250"));
  for (const char* bad :
       {"-1", "+1", " 1", "1.0", "0x10", "18446744073709551616"})
    EXPECT_FALSE(hz.parse(key, bad)) << "'" << bad << "'";

  const CellKeyColumn nice = column("victim_nice");
  EXPECT_TRUE(nice.parse(key, "-20"));
  EXPECT_EQ(key.victim_nice, -20);
  EXPECT_FALSE(nice.parse(key, "+5"));

  const CellKeyColumn jiffy = column("jiffy_timers");
  EXPECT_TRUE(jiffy.parse(key, "false"));
  EXPECT_FALSE(key.jiffy_timers);
  for (const char* bad : {"True", "1", "", "false "})
    EXPECT_FALSE(jiffy.parse(key, bad)) << "'" << bad << "'";

  EXPECT_TRUE(column("attack").parse(key, " any text, even \"this\" "));
  EXPECT_TRUE(column("attack").is_text());
  EXPECT_FALSE(hz.is_text());
  EXPECT_TRUE(jiffy.is_bool());
}

TEST(CellKeyTest, FirstDifferenceNamesTheFirstDifferingColumn) {
  const CellKey key = sample_key();
  for (const CellKeyColumn& col : kCellKeyColumns) {
    // Parse a different value into one column of a copy.
    CellKey other = key;
    const std::string text = col.is_text() ? "different"
                             : col.is_bool() ? "true"
                                             : "3";
    ASSERT_TRUE(col.parse(other, text)) << col.name;
    EXPECT_FALSE(other == key) << col.name;
    EXPECT_STREQ(first_difference(key, other), col.name);
  }
  CellKey two = key;
  two.attacker_nice = 0;
  two.hz = 1;
  EXPECT_STREQ(first_difference(key, two), "hz");  // table order wins
}

TEST(ProgressReporterTest, ReportsCountsElapsedAndEta) {
  core::CellStats cell;
  cell.attack_label = "attacked";
  cell.hz = TimerHz{250};

  std::ostringstream os;
  ProgressReporter progress(os, /*enabled=*/true);
  progress.begin("fig04", 2);
  progress.on_cell({0, 2, 0.5, {}, cell});
  EXPECT_NE(os.str().find("[fig04 1/2]"), std::string::npos);
  EXPECT_NE(os.str().find("attack=attacked"), std::string::npos);
  EXPECT_NE(os.str().find("eta="), std::string::npos);
  progress.on_cell({1, 2, 0.5, {}, cell});
  EXPECT_NE(os.str().find("[fig04 2/2]"), std::string::npos);
  progress.finish();
  EXPECT_NE(os.str().find("done: 2 cell(s)"), std::string::npos);

  std::ostringstream silent;
  ProgressReporter disabled(silent, /*enabled=*/false);
  disabled.begin("fig04", 2);
  disabled.on_cell({0, 2, 0.5, {}, cell});
  disabled.finish();
  EXPECT_EQ(silent.str(), "");
}

TEST(ProgressReporterTest, CellLineShowsSweptScenarioAxes) {
  core::CellStats cell;
  cell.attack_label = "scheduling";
  cell.hz = TimerHz{250};
  cell.cpu = CpuHz{2'530'000'000};  // the stock default — still printed,
  cell.ram = {4096, 64};            // because the axis is swept
  cell.ptrace = kernel::PtracePolicy::kPrivilegedOnly;
  cell.jiffy_timers = false;
  cell.population = 64;
  cell.attacker_fraction = 0.1;
  cell.nice = {Nice{0}, Nice{-20}};
  core::GridGeometry swept;
  swept.extents[core::kCpuAxis] = 3;
  swept.extents[core::kRamAxis] = 2;
  swept.extents[core::kPtraceAxis] = 2;
  swept.extents[core::kJiffyAxis] = 2;
  swept.extents[core::kPopulationAxis] = 2;
  swept.extents[core::kFractionAxis] = 2;
  swept.extents[core::kNiceAxis] = 2;

  std::ostringstream os;
  ProgressReporter progress(os, /*enabled=*/true);
  progress.begin("abl", 1);
  progress.on_cell({0, 1, 0.5, swept, cell});
  EXPECT_NE(os.str().find("cpu_hz=2530000000"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("ram=4096f/64"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("ptrace=privileged_only"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("jiffy_timers=off"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find(" population=64 "), std::string::npos) << os.str();
  EXPECT_NE(os.str().find(" attacker_fraction=0.10000000000000001 "),
            std::string::npos)
      << os.str();
  EXPECT_NE(os.str().find(" victim_nice=0 attacker_nice=-20 "), std::string::npos)
      << os.str();

  // Non-swept axes keep the short line, whatever their value.
  std::ostringstream quiet;
  ProgressReporter stock(quiet, /*enabled=*/true);
  stock.begin("fig", 1);
  stock.on_cell({0, 1, 0.5, core::GridGeometry{}, cell});
  EXPECT_EQ(quiet.str().find("cpu_hz="), std::string::npos) << quiet.str();
  EXPECT_EQ(quiet.str().find("ram="), std::string::npos) << quiet.str();
  EXPECT_EQ(quiet.str().find("ptrace="), std::string::npos) << quiet.str();
  EXPECT_EQ(quiet.str().find("jiffy_timers="), std::string::npos) << quiet.str();
  EXPECT_EQ(quiet.str().find("population="), std::string::npos) << quiet.str();
  EXPECT_EQ(quiet.str().find("attacker_fraction="), std::string::npos) << quiet.str();
  EXPECT_EQ(quiet.str().find("nice="), std::string::npos) << quiet.str();
}

TEST(ProgressReporterTest, ShrinkTotalTracksSkippedCells) {
  core::CellStats cell;
  cell.attack_label = "attacked";
  cell.hz = TimerHz{250};

  std::ostringstream os;
  ProgressReporter progress(os, /*enabled=*/true);
  progress.begin("fig04", 8);
  progress.shrink_total(6);  // a shard that owns 2 of 8 cells
  progress.on_cell({0, 8, 0.5, {}, cell});
  EXPECT_NE(os.str().find("[fig04 1/2]"), std::string::npos);
  progress.on_cell({4, 8, 0.5, {}, cell});
  EXPECT_NE(os.str().find("[fig04 2/2]"), std::string::npos);
  // Shrinking below what's already done clamps instead of underflowing.
  progress.shrink_total(100);
  progress.finish();
  EXPECT_NE(os.str().find("done: 2 cell(s)"), std::string::npos);
}

TEST(ProgressReporterTest, FormatsDurations) {
  EXPECT_EQ(fmt_duration(0.0), "0.0s");
  EXPECT_EQ(fmt_duration(-3.0), "0.0s");
  EXPECT_EQ(fmt_duration(43.21), "43.2s");
  EXPECT_EQ(fmt_duration(126.0), "2m06s");
  EXPECT_EQ(fmt_duration(3726.0), "1h02m");
}

TEST(ProgressReporterTest, DurationUnitBoundariesCarryInsteadOfOverflowing) {
  // 59.95–59.99 s used to render as "60.0s": %.1f rounded up after the
  // <60 bucket was already chosen. Rounding happens first now.
  EXPECT_EQ(fmt_duration(59.94), "59.9s");
  EXPECT_EQ(fmt_duration(59.95), "1m00s");
  EXPECT_EQ(fmt_duration(59.99), "1m00s");
  EXPECT_EQ(fmt_duration(60.0), "1m00s");
  EXPECT_EQ(fmt_duration(60.4), "1m00s");
  EXPECT_EQ(fmt_duration(89.6), "1m30s");
  // The same carry at the hour boundary: 3599.6 s is 1h00m, not 60m00s.
  EXPECT_EQ(fmt_duration(3599.4), "59m59s");
  EXPECT_EQ(fmt_duration(3599.6), "1h00m");
  EXPECT_EQ(fmt_duration(3629.0), "1h00m");
  EXPECT_EQ(fmt_duration(3689.9), "1h01m");
  EXPECT_EQ(fmt_duration(3690.0), "1h02m");
}

TEST(ProgressReporterTest, EtaGuardsDivisionByZeroAndDegenerateInputs) {
  // The ETA is elapsed/done * remaining — done==0 used to divide by zero.
  EXPECT_FALSE(eta_seconds(10.0, 0, 5).has_value());
  // Nothing left: no ETA line rather than "eta=0.0s".
  EXPECT_FALSE(eta_seconds(10.0, 3, 0).has_value());
  // A zero (or negative, or NaN) clock yields no estimate, not zero.
  EXPECT_FALSE(eta_seconds(0.0, 3, 5).has_value());
  EXPECT_FALSE(eta_seconds(-1.0, 3, 5).has_value());
  EXPECT_FALSE(
      eta_seconds(std::numeric_limits<double>::quiet_NaN(), 3, 5).has_value());

  const auto eta = eta_seconds(10.0, 4, 6);
  ASSERT_TRUE(eta.has_value());
  EXPECT_DOUBLE_EQ(*eta, 15.0);  // 2.5 s per cell, 6 cells left
}

TEST(ProgressReporterTest, PerCellOffKeepsBeginAndFinishLines) {
  core::CellStats cell;
  cell.attack_label = "attacked";
  cell.hz = TimerHz{250};

  std::ostringstream os;
  ProgressReporter progress(os, /*enabled=*/true);
  progress.set_per_cell(false);  // mtr_sweep --quiet
  progress.begin("fig04", 2);
  progress.on_cell({0, 2, 0.5, {}, cell});
  progress.on_cell({1, 2, 0.5, {}, cell});
  progress.finish();
  EXPECT_EQ(os.str().find("[fig04 1/2]"), std::string::npos) << os.str();
  EXPECT_EQ(os.str().find("attack="), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("[fig04] 2 cell(s) queued"), std::string::npos)
      << os.str();
  EXPECT_NE(os.str().find("done: 2 cell(s)"), std::string::npos) << os.str();
}

}  // namespace
}  // namespace mtr::report
