// Distributed-sweep coverage: shard spec parsing and partition laws, the
// driver CLI (strict flag parsing, selection errors, sink plumbing,
// dry-run planning), resume edge cases (partial cell re-run, seed/schema
// mismatches), mtr_merge (duplicate/conflicting cells, gaps, missing and
// incomplete shards, the exit-code taxonomy, byte-identity of shard+resume
// runs against a single-process run), fault injection (plan parsing, crash
// and flush faults, the SIGKILL watchdog), crash consistency (every torn
// byte boundary of the final record recovers the complete prefix), the
// one-schema rule (records and metrics of any other version are refused
// by every reader), the metrics reader and the trace check as the one
// owner of their schemas (a refusal per rule, each naming the file; a
// seeded mutation loop over real artifacts; the shared JSON escaper), the
// cell key against the fig04 golden (per-column
// pins through both scanners, resume and merge; strict coordinate
// numbers; a seeded scanner mutation loop), status heartbeats and their
// shared staleness rule, and the mtr_fleet supervisor (deterministic
// backoff, chaos-proven byte-identical merges, partial merges with gap
// manifests, hung-shard kills).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cctype>
#include <cinttypes>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <utility>

#include <sys/wait.h>

#include "common/format.hpp"
#include "common/rng.hpp"
#include "dist/driver.hpp"
#include "dist/fault.hpp"
#include "dist/flags.hpp"
#include "dist/fleet.hpp"
#include "dist/inspect.hpp"
#include "dist/json.hpp"
#include "dist/merge.hpp"
#include "dist/metrics.hpp"
#include "dist/records.hpp"
#include "dist/resume.hpp"
#include "dist/shard.hpp"
#include "dist/status.hpp"
#include "helpers.hpp"
#include "record_columns.hpp"
#include "report/result_sink.hpp"
#include "trace/series.hpp"

namespace mtr::dist {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream content;
  content << in.rdbuf();
  return content.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  for (std::string line; std::getline(is, line);) lines.push_back(line);
  return lines;
}

/// Rewrites `path` to its first `n` lines (newline-terminated) — the shape
/// a kill between cell flushes leaves behind.
void keep_lines(const std::string& path, std::size_t n) {
  const auto lines = lines_of(read_file(path));
  ASSERT_GE(lines.size(), n);
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    out += lines[i];
    out += '\n';
  }
  write_file(path, out);
}

/// Chops `bytes` off the end of `path` — the torn tail a kill mid-write
/// leaves behind, at an exact byte boundary of the test's choosing.
void chop_bytes(const std::string& path, std::uint64_t bytes) {
  const std::string text = read_file(path);
  ASSERT_GE(text.size(), bytes);
  write_file(path, text.substr(0, text.size() - bytes));
}

/// A registry with one real-experiment sweep: a 4-attack x 1 x 1 grid over
/// the context seeds. Every experiment bumps `runs` via its attack
/// factory, so tests can count exactly what executed (the factories return
/// nullptr — the runs stay baseline-cheap).
report::SweepRegistry counting_registry(std::atomic<int>* runs) {
  report::SweepRegistry registry;
  registry.add(
      {"grid", "counting 4-cell grid", [runs](const report::SweepContext& ctx) {
         core::BatchGrid grid;
         grid.base = test::quick_experiment(workloads::WorkloadKind::kOurs,
                                            ctx.scale);
         for (int a = 0; a < 4; ++a) {
           // Append, not `"a" + ...`: GCC 12 -Wrestrict false-positives on
           // the operator+ chain.
           std::string label = "a";
           label += std::to_string(a);
           grid.attacks.push_back(
               {std::move(label),
                [runs]() -> std::unique_ptr<attacks::Attack> {
                  ++*runs;
                  return nullptr;
                }});
         }
         ctx.run_grid("grid", std::move(grid));
       }});
  return registry;
}

/// A registry with one real population sweep: 2 population sizes x 2
/// attacker fractions, real tenants spawned and metered per cell. Used by
/// the shard/resume byte-identity tests to prove populations regenerate
/// bit-identically from the cell seed alone.
report::SweepRegistry population_registry() {
  report::SweepRegistry registry;
  registry.add(
      {"pop", "population 4-cell grid", [](const report::SweepContext& ctx) {
         core::BatchGrid grid;
         grid.base = test::quick_experiment(workloads::WorkloadKind::kOurs,
                                            ctx.scale);
         grid.attacks.push_back(
             {"baseline", []() -> std::unique_ptr<attacks::Attack> {
                return nullptr;
              }});
         grid.population_sizes = {1, 6};
         grid.attacker_fractions = {0.0, 0.4};
         ctx.run_grid("pop", std::move(grid));
       }});
  return registry;
}

SweepOptions grid_options(const std::string& out_dir) {
  SweepOptions o;
  o.sweeps = {"grid"};
  o.out_dir = out_dir;
  o.scale = 0.02;
  o.seeds = {7, 8};
  o.threads = 2;
  o.progress = false;
  o.quiet = true;
  return o;
}

/// A synthetic cell (no simulation) for sink-level shard/resume fixtures.
core::CellStats synth_cell(std::uint64_t index,
                           const std::vector<std::uint64_t>& seeds) {
  core::CellStats cell;
  cell.attack_label = "a" + std::to_string(index);
  cell.scheduler = sim::SchedulerKind::kO1;
  cell.hz = TimerHz{250};
  cell.cell_index = index;
  cell.seeds = seeds;
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    core::ExperimentResult r;
    r.wall_seconds = 1.0 + static_cast<double>(index) + 0.125 * static_cast<double>(i);
    r.overcharge = 1.0 / (3.0 + static_cast<double>(index + i));
    r.billed_seconds = 2.5 + static_cast<double>(i);
    r.true_seconds = 2.375;
    cell.runs.push_back(r);
    cell.for_each_stat(
        [&](const char*, RunningStats& stat, auto get) { stat.add(get(r)); });
  }
  return cell;
}

/// Writes cells (by index) into one JSONL file via the real sink.
void write_shard_jsonl(const std::string& path,
                       const std::vector<std::uint64_t>& cell_indices) {
  report::JsonlSink sink(path);
  for (const std::uint64_t i : cell_indices)
    sink.write_cell("grid", synth_cell(i, {7, 8}));
}

TEST(ShardSpecTest, ParsesAndPartitionsDeterministically) {
  const ShardSpec s = parse_shard_spec("1/3");
  EXPECT_EQ(s.index, 1u);
  EXPECT_EQ(s.count, 3u);
  EXPECT_TRUE(s.sharded());
  EXPECT_EQ(to_string(s), "1/3");
  EXPECT_FALSE(ShardSpec{}.sharded());

  // Every cell belongs to exactly one shard.
  const ShardSpec shards[3] = {parse_shard_spec("0/3"), parse_shard_spec("1/3"),
                               parse_shard_spec("2/3")};
  for (std::uint64_t cell = 0; cell < 50; ++cell) {
    int owners = 0;
    for (const ShardSpec& shard : shards) owners += shard.owns(cell) ? 1 : 0;
    EXPECT_EQ(owners, 1) << "cell " << cell;
  }

  for (const char* bad : {"3/3", "4/3", "x/3", "1/x", "1/0", "1", "/3", "1/",
                          "-1/3", "1/3x", "", "01/3", "1/03"})
    EXPECT_THROW(parse_shard_spec(bad), std::runtime_error) << bad;
}

TEST(SweepArgsTest, ParsesFlagsOverEnvDefaults) {
  const char* argv[] = {"mtr_sweep", "fig04",         "tab_countermeasures",
                        "--scale",   "0.5",           "--seeds",
                        "4",         "--first-seed",  "100",
                        "--threads", "3",             "--quiet",
                        "--no-progress", "--out-dir", "/tmp/x",
                        "--shard",   "1/4",           "--resume",
                        "--dry-run"};
  const SweepOptions o = parse_sweep_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(o.sweeps, (std::vector<std::string>{"fig04", "tab_countermeasures"}));
  EXPECT_DOUBLE_EQ(o.scale, 0.5);
  EXPECT_EQ(o.seeds, (std::vector<std::uint64_t>{100, 101, 102, 103}));
  EXPECT_EQ(o.threads, 3u);
  EXPECT_TRUE(o.quiet);
  EXPECT_FALSE(o.progress);
  EXPECT_EQ(o.out_dir, "/tmp/x");
  EXPECT_EQ(o.shard.index, 1u);
  EXPECT_EQ(o.shard.count, 4u);
  EXPECT_TRUE(o.resume);
  EXPECT_TRUE(o.dry_run);
  EXPECT_FALSE(o.list);
  EXPECT_FALSE(o.event_driven.has_value());  // default: kernel's own choice

  const char* bad[] = {"mtr_sweep", "--bogus"};
  EXPECT_THROW(parse_sweep_args(2, bad), std::runtime_error);
}

TEST(SweepArgsTest, EngineSelectsTheKernelStepLoop) {
  const char* ev[] = {"mtr_sweep", "--engine", "event"};
  EXPECT_EQ(parse_sweep_args(3, ev).event_driven, std::optional<bool>{true});
  const char* sl[] = {"mtr_sweep", "--engine", "slice"};
  EXPECT_EQ(parse_sweep_args(3, sl).event_driven, std::optional<bool>{false});
  const char* bad[] = {"mtr_sweep", "--engine", "warp"};
  EXPECT_THROW(parse_sweep_args(3, bad), std::runtime_error);
}

TEST(SweepArgsTest, RejectsTrailingGarbageInNumericFlags) {
  const auto throws = [](std::vector<const char*> args) {
    args.insert(args.begin(), "mtr_sweep");
    EXPECT_THROW(
        parse_sweep_args(static_cast<int>(args.size()), args.data()),
        std::runtime_error)
        << args[1] << " " << args[2];
  };
  throws({"--scale", "2x"});
  throws({"--scale", "nan(2)x"});
  throws({"--threads", "8q"});
  throws({"--seeds", "3.5"});
  throws({"--shard", "1of3"});
  // Non-finite and out-of-range values are refused, not truncated.
  throws({"--scale", "nan"});
  throws({"--scale", "inf"});
  throws({"--scale", "-inf"});
  throws({"--threads", "4294967297"});

  // The plain forms still parse.
  const char* ok[] = {"mtr_sweep", "--scale", "2.5", "--threads", "8",
                      "--seeds", "3"};
  const SweepOptions o = parse_sweep_args(static_cast<int>(std::size(ok)), ok);
  EXPECT_DOUBLE_EQ(o.scale, 2.5);
  EXPECT_EQ(o.threads, 8u);
  EXPECT_EQ(o.seeds.size(), 3u);
}

TEST(SweepDriverTest, ListAndUnknownSelection) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);

  SweepOptions list_opts;
  list_opts.list = true;
  std::ostringstream out, err;
  EXPECT_EQ(run_sweeps(registry, list_opts, out, err), 0);
  EXPECT_NE(out.str().find("grid  counting 4-cell grid"), std::string::npos);

  SweepOptions unknown;
  unknown.sweeps = {"fig99"};
  EXPECT_EQ(run_sweeps(registry, unknown, out, err), 2);
  EXPECT_NE(err.str().find("fig99"), std::string::npos);

  SweepOptions nothing;
  EXPECT_EQ(run_sweeps(registry, nothing, out, err), 2);

  SweepOptions twice;
  twice.sweeps = {"grid", "grid"};
  EXPECT_EQ(run_sweeps(registry, twice, out, err), 2);
  EXPECT_NE(err.str().find("sweep 'grid' is named twice"), std::string::npos);

  SweepOptions conflicting;
  conflicting.all = true;
  conflicting.sweeps = {"grid"};
  EXPECT_EQ(run_sweeps(registry, conflicting, out, err), 2);
  EXPECT_NE(err.str().find("--all conflicts"), std::string::npos);

  SweepOptions resume_without_output;
  resume_without_output.sweeps = {"grid"};
  resume_without_output.resume = true;
  EXPECT_EQ(run_sweeps(registry, resume_without_output, out, err), 2);
  EXPECT_NE(err.str().find("--resume needs output"), std::string::npos);
  EXPECT_EQ(runs.load(), 0);
}

TEST(SweepDriverTest, RunsGridAndCreatesSinkParentDirs) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);

  const std::string root = temp_path("dist_driver_parents");
  std::filesystem::remove_all(root);
  const SweepOptions opts = grid_options(root + "/deep/nested");

  std::ostringstream out, err;
  EXPECT_EQ(run_sweeps(registry, opts, out, err), 0);
  // 4 cells x 2 seeds, but the grid draws no randomness: each cell's
  // second seed takes its first seed's result, so 4 cells x 1 run.
  EXPECT_EQ(runs.load(), 4);
  const std::string csv = opts.out_dir + "/grid.csv";
  const std::string jsonl = opts.out_dir + "/grid.jsonl";
  EXPECT_TRUE(std::filesystem::exists(csv));
  EXPECT_TRUE(std::filesystem::exists(jsonl));
  EXPECT_EQ(lines_of(read_file(csv)).size(), 1u + 8u);
  EXPECT_EQ(lines_of(read_file(jsonl)).size(), 8u + 4u);
  std::filesystem::remove_all(root);
}

TEST(SweepDriverTest, UsageErrorsExitTwo) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const char* bogus[] = {"mtr_sweep", "--bogus"};
  EXPECT_EQ(sweep_main(registry, 2, bogus), 2);
  const char* no_value[] = {"mtr_sweep", "grid", "--scale"};
  EXPECT_EQ(sweep_main(registry, 3, no_value), 2);
  // --out-dir is the one record output path; the shared-file flags are gone.
  const char* csv[] = {"mtr_sweep", "grid", "--csv", "x.csv"};
  EXPECT_EQ(sweep_main(registry, 4, csv), 2);
  const char* jsonl[] = {"mtr_sweep", "grid", "--jsonl", "x.jsonl"};
  EXPECT_EQ(sweep_main(registry, 4, jsonl), 2);
  EXPECT_EQ(runs.load(), 0);
}

TEST(SweepDriverTest, DryRunPlansWithoutExecuting) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);

  const std::string dir = temp_path("dist_dry_run_out");
  std::filesystem::remove_all(dir);
  SweepOptions opts = grid_options(dir);
  opts.dry_run = true;

  std::ostringstream out, err;
  EXPECT_EQ(run_sweeps(registry, opts, out, err), 0);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_FALSE(std::filesystem::exists(dir));  // no sinks under --dry-run
  EXPECT_NE(out.str().find("grid: cells [0,4) — runs all 4"), std::string::npos);
  EXPECT_NE(out.str().find("dry run: 1 sweep(s), 4 cell(s)"), std::string::npos);

  // Sharded plan lists the owned global indices.
  opts.shard = parse_shard_spec("1/2");
  std::ostringstream out2;
  EXPECT_EQ(run_sweeps(registry, opts, out2, err), 0);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_NE(out2.str().find("grid: cells [0,4) — runs 2/4: 1 3"),
            std::string::npos);
  EXPECT_NE(out2.str().find("shard 1/2 runs 2"), std::string::npos);
}

TEST(ShardMergeTest, MergedShardsAreByteIdenticalToSingleRun) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_shard_merge");
  std::filesystem::remove_all(root);

  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(root + "/ref"), out, err), 0);
  EXPECT_EQ(runs.load(), 4);  // one run per seed-invariant cell

  // 4 cells round-robin over 3 shards: {0,3}, {1}, {2}.
  MergeOptions merge;
  merge.csv_out = root + "/merged/grid.csv";
  merge.jsonl_out = root + "/merged/grid.jsonl";
  runs = 0;
  for (int shard = 0; shard < 3; ++shard) {
    SweepOptions opts = grid_options(root + "/shard" + std::to_string(shard));
    opts.shard = parse_shard_spec(std::to_string(shard) + "/3");
    ASSERT_EQ(run_sweeps(registry, opts, out, err), 0);
    merge.csv_in.push_back(opts.out_dir + "/grid.csv");
    merge.jsonl_in.push_back(opts.out_dir + "/grid.jsonl");
  }
  EXPECT_EQ(runs.load(), 4);  // every cell ran once, on exactly one shard

  std::ostringstream merge_out, merge_err;
  ASSERT_EQ(run_merge(merge, merge_out, merge_err), 0) << merge_err.str();
  EXPECT_EQ(read_file(merge.csv_out), read_file(root + "/ref/grid.csv"));
  EXPECT_EQ(read_file(merge.jsonl_out), read_file(root + "/ref/grid.jsonl"));
  std::filesystem::remove_all(root);
}

/// Four sweeps mixing attacked and baseline cells — the shard-assignment
/// fixture. In global cell order the classes are b b x x | x x b | b b |
/// x x (x: attacked). The attack factories build nothing, so an
/// "attacked" cell runs as a baseline: only the plan sees the class.
report::SweepRegistry mixed_registry() {
  report::SweepRegistry registry;
  const auto grid = [](const report::SweepContext& ctx,
                       std::vector<bool> attacked) {
    core::BatchGrid g;
    g.base = test::quick_experiment(workloads::WorkloadKind::kOurs, ctx.scale);
    for (std::size_t a = 0; a < attacked.size(); ++a) {
      core::AttackFactory make;
      if (attacked[a]) make = [] { return std::unique_ptr<attacks::Attack>(); };
      std::string label = "a";
      label += std::to_string(a);
      g.attacks.push_back({std::move(label), std::move(make)});
    }
    return g;
  };
  registry.add({"mixA", "", [grid](const report::SweepContext& ctx) {
                  core::BatchGrid g = grid(ctx, {false, true});
                  g.schedulers = {sim::SchedulerKind::kO1,
                                  sim::SchedulerKind::kCfs};
                  ctx.run_grid("mixA", std::move(g));
                }});
  registry.add({"mixB", "", [grid](const report::SweepContext& ctx) {
                  ctx.run_grid("mixB", grid(ctx, {true, true, false}));
                }});
  registry.add({"mixC", "", [grid](const report::SweepContext& ctx) {
                  core::BatchGrid g = grid(ctx, {});
                  g.jiffy_timers = {true, false};
                  ctx.run_grid("mixC", std::move(g));
                }});
  registry.add({"mixD", "", [grid](const report::SweepContext& ctx) {
                  core::BatchGrid g = grid(ctx, {true});
                  g.schedulers = {sim::SchedulerKind::kO1,
                                  sim::SchedulerKind::kCfs};
                  ctx.run_grid("mixD", std::move(g));
                }});
  return registry;
}
constexpr bool kMixedAttacked[] = {false, false, true,  true,  true, true,
                                   false, false, false, true,  true};

SweepOptions mixed_options(const std::string& out_dir) {
  SweepOptions o = grid_options(out_dir);
  o.sweeps = {"mixA", "mixB", "mixC", "mixD"};
  return o;
}

/// The global cell indices a --dry-run plan says the invocation runs.
std::vector<std::uint64_t> planned_cells(const std::string& plan) {
  std::vector<std::uint64_t> cells;
  std::istringstream lines(plan);
  for (std::string line; std::getline(lines, line);) {
    std::uint64_t lo = 0, hi = 0;
    const std::size_t open = line.find(": cells [");
    if (open == std::string::npos ||
        std::sscanf(line.c_str() + open, ": cells [%" SCNu64 ",%" SCNu64 ")",
                    &lo, &hi) != 2)
      continue;
    if (line.find("— runs all") != std::string::npos) {
      for (std::uint64_t c = lo; c < hi; ++c) cells.push_back(c);
      continue;
    }
    std::istringstream owned(line.substr(line.find(':', open + 2) + 1));
    for (std::uint64_t c; owned >> c;) cells.push_back(c);
  }
  return cells;
}

std::vector<std::uint64_t> dry_run_cells(const report::SweepRegistry& registry,
                                         SweepOptions opts) {
  opts.dry_run = true;
  std::ostringstream out, err;
  EXPECT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();
  return planned_cells(out.str());
}

/// The cell indices of every closed block in the given JSONL files.
std::vector<std::uint64_t> written_cells(const std::string& dir,
                                         const std::vector<std::string>& sweeps) {
  std::vector<std::uint64_t> cells;
  for (const std::string& sweep : sweeps)
    for (const CellBlock& b : scan_jsonl(dir + "/" + sweep + ".jsonl").blocks)
      cells.push_back(b.key.cell_index);
  return cells;
}

TEST(ShardAssignmentTest, DealsEachCostClassEvenlyAndOwnsEveryCellOnce) {
  const report::SweepRegistry registry = mixed_registry();
  const std::size_t n_cells = std::size(kMixedAttacked);
  for (std::uint64_t n = 1; n <= 6; ++n) {
    SCOPED_TRACE("N=" + std::to_string(n));
    std::vector<int> owners(n_cells, 0);
    std::vector<std::size_t> per_class[2];
    for (std::uint64_t i = 0; i < n; ++i) {
      SweepOptions opts = mixed_options("");
      opts.shard = ShardSpec{i, n};
      std::size_t in_class[2] = {0, 0};
      for (const std::uint64_t c : dry_run_cells(registry, opts)) {
        ASSERT_LT(c, n_cells);
        ++owners[c];
        ++in_class[kMixedAttacked[c] ? 1 : 0];
      }
      per_class[0].push_back(in_class[0]);
      per_class[1].push_back(in_class[1]);
    }
    for (std::size_t c = 0; c < n_cells; ++c)
      EXPECT_EQ(owners[c], 1) << "cell " << c;
    for (const auto& counts : per_class)
      EXPECT_LE(*std::max_element(counts.begin(), counts.end()) -
                    *std::min_element(counts.begin(), counts.end()),
                1u);
  }
  // Shard 0 of 2 takes the even class positions: baseline cells 0, 6, 8
  // and attacked cells 2, 4, 9 (cell_index % 2 would have taken 10).
  SweepOptions half = mixed_options("");
  half.shard = parse_shard_spec("0/2");
  EXPECT_EQ(dry_run_cells(registry, half),
            (std::vector<std::uint64_t>{0, 2, 4, 6, 8, 9}));
}

TEST(ShardAssignmentTest, DryRunListsExactlyTheCellsAShardWritesAcrossAResume) {
  const report::SweepRegistry registry = mixed_registry();
  const std::string root = temp_path("dist_shard_assign");
  std::filesystem::remove_all(root);
  const std::vector<std::string> sweeps = {"mixA", "mixB", "mixC", "mixD"};
  for (std::uint64_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("shard " + std::to_string(i));
    SweepOptions opts = mixed_options(root + "/shard" + std::to_string(i));
    opts.shard = ShardSpec{i, 3};
    const std::vector<std::uint64_t> planned = dry_run_cells(registry, opts);
    ASSERT_FALSE(planned.empty());
    std::ostringstream out, err;
    ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();
    EXPECT_EQ(written_cells(opts.out_dir, sweeps), planned);
    const std::string full_a = read_file(opts.out_dir + "/mixA.jsonl");

    const std::string full_csv_a = read_file(opts.out_dir + "/mixA.csv");

    // A kill after the shard's first cell: every later record is gone. The
    // CSVs stay whole, ahead of their records; the resumed shard keeps that
    // cell, runs exactly the rest of its own and rebuilds each CSV.
    bool kept = false;
    for (const std::string& sweep : sweeps) {
      const std::string jsonl = opts.out_dir + "/" + sweep + ".jsonl";
      const FileScan scan = scan_jsonl(jsonl);
      const bool keep = !kept && !scan.blocks.empty();
      std::filesystem::resize_file(jsonl, keep ? scan.blocks[0].end_offset : 0);
      kept = kept || keep;
    }
    opts.resume = true;
    EXPECT_EQ(dry_run_cells(registry, opts).size(), planned.size() - 1);
    ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();
    EXPECT_EQ(written_cells(opts.out_dir, sweeps), planned);
    EXPECT_EQ(read_file(opts.out_dir + "/mixA.jsonl"), full_a);
    EXPECT_EQ(read_file(opts.out_dir + "/mixA.csv"), full_csv_a);
  }
  std::filesystem::remove_all(root);
}

TEST(MergeTest, OneCombinedFileIsTheMergeOfAnOutDirRun) {
  // The recipe for one combined file: mtr_merge over every per-sweep
  // record file of one --out-dir run, in any order (a shell glob sorts by
  // name, not by cell_index); --csv renders the merged records.
  const report::SweepRegistry registry = mixed_registry();
  const std::string root = temp_path("dist_merge_combined");
  std::filesystem::remove_all(root);
  SweepOptions opts = mixed_options(root + "/out");
  opts.sweeps = {"mixA", "mixB"};
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();

  MergeOptions merge;
  merge.csv_out = root + "/all.csv";
  merge.jsonl_out = root + "/all.jsonl";
  for (const char* sweep : {"mixB", "mixA"})
    merge.jsonl_in.push_back(opts.out_dir + "/" + sweep + ".jsonl");
  ASSERT_EQ(run_merge(merge, out, err), 0) << err.str();
  const std::string csv_b = read_file(opts.out_dir + "/mixB.csv");
  const std::string rows_b = csv_b.substr(csv_b.find('\n') + 1);
  ASSERT_FALSE(rows_b.empty());
  EXPECT_EQ(read_file(merge.csv_out),
            read_file(opts.out_dir + "/mixA.csv") + rows_b);
  EXPECT_EQ(read_file(merge.jsonl_out),
            read_file(opts.out_dir + "/mixA.jsonl") +
                read_file(opts.out_dir + "/mixB.jsonl"));
  std::filesystem::remove_all(root);
}

/// One sweep that queues two 2-cell baseline grids: the fixture for the
/// driver's per-grid planning.
report::SweepRegistry two_grid_registry() {
  report::SweepRegistry registry;
  registry.add({"pair", "two 2-cell grids", [](const report::SweepContext& ctx) {
                  for (int g = 0; g < 2; ++g) {
                    core::BatchGrid grid;
                    grid.base = test::quick_experiment(
                        workloads::WorkloadKind::kOurs, ctx.scale);
                    grid.schedulers = {sim::SchedulerKind::kO1,
                                       sim::SchedulerKind::kCfs};
                    ctx.run_grid("pair", std::move(grid));
                  }
                }});
  return registry;
}

TEST(SweepDriverTest, PlanNumbersGatesAndCountsEveryQueuedGrid) {
  const report::SweepRegistry registry = two_grid_registry();
  const std::string dir = temp_path("dist_plan_pair");
  std::filesystem::remove_all(dir);
  SweepOptions opts = grid_options(dir);
  opts.sweeps = {"pair"};
  const auto plan = [&](SweepOptions o) {
    o.dry_run = true;
    std::ostringstream out, err;
    EXPECT_EQ(run_sweeps(registry, o, out, err), 0) << err.str();
    return out.str();
  };

  // The second grid's cells continue the first's numbering, on the plan
  // and in the records.
  EXPECT_EQ(plan(opts),
            "pair: cells [0,2) — runs all 2\n"
            "pair: cells [2,4) — runs all 2\n"
            "dry run: 1 sweep(s), 4 cell(s)\n");
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();
  EXPECT_EQ(written_cells(dir, {"pair"}),
            (std::vector<std::uint64_t>{0, 1, 2, 3}));
  const std::string ref_csv = read_file(dir + "/pair.csv");
  const std::string ref_jsonl = read_file(dir + "/pair.jsonl");

  // Class positions run on across grids, in order: shard 1/3 owns
  // position 1 alone (positions restarting per grid would add cell 3).
  SweepOptions shard = opts;
  shard.shard = parse_shard_spec("1/3");
  EXPECT_EQ(plan(shard),
            "pair: cells [0,2) — runs 1/2: 1\n"
            "pair: cells [2,4) — runs 0/2:\n"
            "dry run: 1 sweep(s), 4 cell(s); shard 1/3 runs 1\n");

  // A kill after cell 0. The resume gate skips it, the plan counts the
  // three cells left, and the progress span (the heartbeat's total) leaves
  // the skipped cell out.
  keep_lines(dir + "/pair.jsonl", 3);
  keep_lines(dir + "/pair.csv", 3);
  SweepOptions resume = opts;
  resume.resume = true;
  EXPECT_EQ(plan(resume),
            "pair: cells [0,2) — runs 1/2: 1\n"
            "pair: cells [2,4) — runs all 2\n"
            "dry run: 1 sweep(s), 4 cell(s); 3 left to run\n");
  resume.status_file = dir + "/status.json";
  resume.progress = true;
  std::ostringstream progress;
  ASSERT_EQ(run_sweeps(registry, resume, out, progress), 0) << progress.str();
  // The span is the sweep's: its name, and every cell its grids queued.
  EXPECT_NE(progress.str().find("[pair] 4 cell(s) queued"), std::string::npos);
  const StatusSnapshot status = read_status_file(resume.status_file);
  EXPECT_EQ(status.cells_done, 3u);
  EXPECT_EQ(status.cells_total, 3u);
  EXPECT_EQ(read_file(dir + "/pair.csv"), ref_csv);
  EXPECT_EQ(read_file(dir + "/pair.jsonl"), ref_jsonl);
  std::filesystem::remove_all(dir);
}

TEST(ResumeTest, PartialCellIsRerunAndBytesMatchUninterruptedRun) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string dir = temp_path("dist_resume_out");
  std::filesystem::remove_all(dir);

  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(dir), out, err), 0);
  EXPECT_EQ(runs.load(), 4);  // one run per seed-invariant cell
  const std::string ref_csv = read_file(dir + "/grid.csv");
  const std::string ref_jsonl = read_file(dir + "/grid.jsonl");

  // Simulate a kill inside cell 1: the JSONL keeps cell 0's block (3
  // lines) plus one orphan run line; the CSV keeps the header, cell 0's
  // two rows, and one row of cell 1.
  keep_lines(dir + "/grid.jsonl", 4);
  keep_lines(dir + "/grid.csv", 4);

  runs = 0;
  SweepOptions opts = grid_options(dir);
  opts.resume = true;
  std::ostringstream err2;
  ASSERT_EQ(run_sweeps(registry, opts, out, err2), 0);
  // Cell 0 is skipped; the partially-written cell 1 reruns in full, one
  // run per seed-invariant cell.
  EXPECT_EQ(runs.load(), 3);
  EXPECT_NE(err2.str().find("1 cell(s) already complete"), std::string::npos);
  EXPECT_EQ(read_file(dir + "/grid.csv"), ref_csv);
  EXPECT_EQ(read_file(dir + "/grid.jsonl"), ref_jsonl);

  // Resuming a finished sweep runs nothing and changes nothing.
  runs = 0;
  ASSERT_EQ(run_sweeps(registry, opts, out, err), 0);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(read_file(dir + "/grid.csv"), ref_csv);
  EXPECT_EQ(read_file(dir + "/grid.jsonl"), ref_jsonl);
  std::filesystem::remove_all(dir);
}

/// Rewrites a `grid` run's two files (2 seeds: 3 JSONL lines and 2 CSV
/// rows per cell) to hold the blocks of `cells`, in that order.
void keep_cell_blocks(const std::string& dir, const std::vector<std::size_t>& cells) {
  const auto jsonl = lines_of(read_file(dir + "/grid.jsonl"));
  const auto csv = lines_of(read_file(dir + "/grid.csv"));
  std::string jsonl_out, csv_out = csv[0] + '\n';
  for (const std::size_t c : cells) {
    for (std::size_t l = 0; l < 3; ++l) jsonl_out += jsonl[3 * c + l] + '\n';
    for (std::size_t l = 0; l < 2; ++l) csv_out += csv[1 + 2 * c + l] + '\n';
  }
  write_file(dir + "/grid.jsonl", jsonl_out);
  write_file(dir + "/grid.csv", csv_out);
}

TEST(ResumeTest, BlocksOutOfCellOrderAreRefused) {
  // Appending the missing cells after cell 1's block then cell 0's could
  // never rebuild the uninterrupted run: refuse, naming the second block.
  const std::string path = temp_path("dist_resume_order.jsonl");
  write_shard_jsonl(path, {1, 0});
  try {
    ResumeIndex::scan(path, {7, 8});
    FAIL() << "expected a cell-order error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":4: cell 0 follows cell 1"), std::string::npos) << what;
  }
  write_shard_jsonl(path, {0, 0});  // a repeated block is out of order too
  EXPECT_THROW(ResumeIndex::scan(path, {7, 8}), std::runtime_error);
  std::filesystem::remove(path);

  // The same through the driver, on both files of a real run: nothing
  // runs and nothing is truncated.
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string dir = temp_path("dist_resume_order");
  std::filesystem::remove_all(dir);
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(dir), out, err), 0) << err.str();
  keep_cell_blocks(dir, {1, 0});
  const std::string swapped_jsonl = read_file(dir + "/grid.jsonl");
  const std::string swapped_csv = read_file(dir + "/grid.csv");
  SweepOptions opts = grid_options(dir);
  opts.resume = true;
  runs = 0;
  EXPECT_THROW(run_sweeps(registry, opts, out, err), std::runtime_error);
  EXPECT_EQ(runs.load(), 0);
  EXPECT_EQ(read_file(dir + "/grid.jsonl"), swapped_jsonl);
  EXPECT_EQ(read_file(dir + "/grid.csv"), swapped_csv);
  std::filesystem::remove_all(dir);
}

TEST(ResumeTest, AHoleInTheOwnedCellsIsRefused) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string dir = temp_path("dist_resume_hole");
  std::filesystem::remove_all(dir);
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(dir), out, err), 0) << err.str();
  const std::string ref_jsonl = read_file(dir + "/grid.jsonl");

  // Cells 0 and 2 on disk, cell 1 missing: resuming would append cell 1
  // after cell 2. Both the plan and the run refuse, naming cell 2's block.
  keep_cell_blocks(dir, {0, 2});
  SweepOptions opts = grid_options(dir);
  opts.resume = true;
  SweepOptions dry = opts;
  dry.dry_run = true;
  for (const SweepOptions& o : {dry, opts}) {
    runs = 0;
    try {
      run_sweeps(registry, o, out, err);
      FAIL() << "expected a hole error";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(dir + "/grid.jsonl:4: cell 2 is recorded but cell 1"),
                std::string::npos)
          << what;
    }
    EXPECT_EQ(runs.load(), 0);
  }

  // A shard's file holds only the cells it owns: their gaps are no hole.
  SweepOptions shard = grid_options(dir);
  shard.shard = parse_shard_spec("0/2");
  std::filesystem::remove_all(dir);
  ASSERT_EQ(run_sweeps(registry, shard, out, err), 0) << err.str();
  const std::string shard_jsonl = read_file(dir + "/grid.jsonl");
  keep_lines(dir + "/grid.jsonl", 3);
  keep_lines(dir + "/grid.csv", 3);
  shard.resume = true;
  ASSERT_EQ(run_sweeps(registry, shard, out, err), 0) << err.str();
  EXPECT_EQ(read_file(dir + "/grid.jsonl"), shard_jsonl);
  EXPECT_NE(ref_jsonl, shard_jsonl);
  std::filesystem::remove_all(dir);
}

TEST(PopulationSweepTest, ThreadsShardsAndResumePreservePopulationBytes) {
  // Populations are regenerated from the cell seed alone, so a populated
  // grid must be byte-identical however the work is split: worker thread
  // count, shard partition, or a mid-cell kill healed by --resume.
  const std::string root = temp_path("dist_pop_identity");
  std::filesystem::remove_all(root);
  const report::SweepRegistry registry = population_registry();
  std::ostringstream out, err;

  SweepOptions ref = grid_options(root + "/ref");
  ref.sweeps = {"pop"};
  ref.threads = 1;
  ASSERT_EQ(run_sweeps(registry, ref, out, err), 0) << err.str();
  const std::string ref_csv = read_file(root + "/ref/pop.csv");
  const std::string ref_jsonl = read_file(root + "/ref/pop.jsonl");
  // The populated cells really metered their tenants.
  EXPECT_NE(ref_jsonl.find("\"population\":6"), std::string::npos);
  EXPECT_NE(ref_jsonl.find("\"pop_tenants\":6"), std::string::npos);

  SweepOptions threaded = ref;
  threaded.out_dir = root + "/threads";
  threaded.threads = 4;
  ASSERT_EQ(run_sweeps(registry, threaded, out, err), 0) << err.str();
  EXPECT_EQ(read_file(threaded.out_dir + "/pop.csv"), ref_csv);
  EXPECT_EQ(read_file(threaded.out_dir + "/pop.jsonl"), ref_jsonl);

  MergeOptions merge;
  merge.csv_out = root + "/merged/pop.csv";
  merge.jsonl_out = root + "/merged/pop.jsonl";
  for (int shard = 0; shard < 2; ++shard) {
    SweepOptions opts = ref;
    opts.out_dir = root + "/shard" + std::to_string(shard);
    opts.shard = parse_shard_spec(std::to_string(shard) + "/2");
    ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();
    merge.csv_in.push_back(opts.out_dir + "/pop.csv");
    merge.jsonl_in.push_back(opts.out_dir + "/pop.jsonl");
  }
  std::ostringstream merge_out, merge_err;
  ASSERT_EQ(run_merge(merge, merge_out, merge_err), 0) << merge_err.str();
  EXPECT_EQ(read_file(merge.csv_out), ref_csv);
  EXPECT_EQ(read_file(merge.jsonl_out), ref_jsonl);

  // Kill inside the first populated cell (cell 2): its partial block and
  // orphan run must be rolled back and regenerated bit-identically.
  SweepOptions resumed = ref;
  resumed.out_dir = root + "/resumed";
  ASSERT_EQ(run_sweeps(registry, resumed, out, err), 0) << err.str();
  keep_lines(resumed.out_dir + "/pop.jsonl", 7);  // 2 cell blocks + 1 orphan
  keep_lines(resumed.out_dir + "/pop.csv", 6);    // header + 4 rows + 1
  resumed.resume = true;
  std::ostringstream err2;
  ASSERT_EQ(run_sweeps(registry, resumed, out, err2), 0) << err2.str();
  EXPECT_NE(err2.str().find("2 cell(s) already complete"), std::string::npos);
  EXPECT_EQ(read_file(resumed.out_dir + "/pop.csv"), ref_csv);
  EXPECT_EQ(read_file(resumed.out_dir + "/pop.jsonl"), ref_jsonl);
  std::filesystem::remove_all(root);
}

TEST(ResumeTest, SeedMismatchIsRejected) {
  const std::string path = temp_path("dist_resume_seeds.jsonl");
  write_shard_jsonl(path, {0});
  EXPECT_THROW(ResumeIndex::scan(path, {7, 8, 9}), std::runtime_error);
  EXPECT_THROW(ResumeIndex::scan(path, {8, 9}), std::runtime_error);
  EXPECT_NO_THROW(ResumeIndex::scan(path, {7, 8}));
  std::filesystem::remove(path);
}

TEST(ResumeTest, CoordinateMismatchIsRejected) {
  const std::string path = temp_path("dist_resume_coords.jsonl");
  write_shard_jsonl(path, {0});
  const ResumeIndex index = ResumeIndex::scan(path, {7, 8});
  ASSERT_EQ(index.size(), 1u);

  report::CellKey match;
  match.cell_index = 0;
  match.sweep = "grid";
  match.attack = "a0";
  match.scheduler = "o1";
  match.hz = 250;
  match.cpu_hz = 2'530'000'000;  // synth_cell's CellStats defaults
  match.ram_frames = 16 * 1024;
  match.reclaim_batch = 256;
  match.ptrace = "allow_all";
  match.jiffy_timers = true;
  EXPECT_TRUE(index.completed(match));

  report::CellKey absent = match;
  absent.cell_index = 7;
  EXPECT_FALSE(index.completed(absent));

  // Same index, different grid: resuming into foreign output must abort,
  // not silently skip — and the error names the differing field.
  report::CellKey conflicting = match;
  conflicting.attack = "something else";
  try {
    index.completed(conflicting);
    FAIL() << "expected a coordinate-mismatch error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("field 'attack'"), std::string::npos) << what;
    EXPECT_NE(what.find(path + ":1"), std::string::npos) << what;
  }

  // A scenario-axis contradiction is caught the same way: the recorded
  // output came from a different machine configuration.
  report::CellKey wrong_axis = match;
  wrong_axis.jiffy_timers = false;
  try {
    index.completed(wrong_axis);
    FAIL() << "expected a coordinate-mismatch error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("field 'jiffy_timers'"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(ResumeTest, TheCsvIsRebuiltFromTheKeptRecords) {
  // The CSV is a view of the JSONL records. Whatever a failure left in it
  // — nothing, a row cut short, another file's bytes, more cells than the
  // records — one resume rebuilds it from the records it keeps.
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_resume_csv_view");
  std::filesystem::remove_all(root);
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(root + "/ref"), out, err), 0)
      << err.str();
  const std::string ref_csv = read_file(root + "/ref/grid.csv");
  const std::string ref_jsonl = read_file(root + "/ref/grid.jsonl");
  const std::string dir = root + "/run";
  const std::string csv = dir + "/grid.csv";
  const std::string jsonl = dir + "/grid.jsonl";
  struct Damage {
    const char* what;
    std::function<void()> apply;
    int reruns;  // one run per seed-invariant cell
  };
  const std::vector<Damage> damages = {
      {"no CSV", [&] { std::filesystem::remove(csv); }, 0},
      {"CSV cut mid-row", [&] { chop_bytes(csv, 40); }, 0},
      {"CSV of another file", [&] { write_file(csv, "junk\n"); }, 0},
      {"CSV ahead of two cells of records", [&] { keep_lines(jsonl, 6); }, 2},
      {"records unreadable, CSV whole",
       [&] { write_file(jsonl, "garbage, not a record\n"); }, 4},
  };
  for (const Damage& d : damages) {
    SCOPED_TRACE(d.what);
    std::filesystem::create_directories(dir);
    write_file(csv, ref_csv);
    write_file(jsonl, ref_jsonl);
    d.apply();
    SweepOptions opts = grid_options(dir);
    opts.resume = true;
    runs = 0;
    ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();
    EXPECT_EQ(runs.load(), d.reruns);
    EXPECT_EQ(read_file(csv), ref_csv);
    EXPECT_EQ(read_file(jsonl), ref_jsonl);
  }
  std::filesystem::remove_all(root);
}

TEST(SweepArgsTest, EnvDefaultsAreStrictToo) {
  ASSERT_EQ(setenv("MTR_BENCH_SEEDS", "2x", 1), 0);
  EXPECT_THROW(default_sweep_options(), std::runtime_error);
  ASSERT_EQ(setenv("MTR_BENCH_SEEDS", "4", 1), 0);
  EXPECT_EQ(default_sweep_options().seeds.size(), 4u);
  ASSERT_EQ(setenv("MTR_BENCH_SEEDS", "", 1), 0);  // empty = unset
  EXPECT_EQ(default_sweep_options().seeds.size(), 3u);
  ASSERT_EQ(unsetenv("MTR_BENCH_SEEDS"), 0);

  ASSERT_EQ(setenv("MTR_BENCH_SCALE", "abc", 1), 0);
  EXPECT_THROW(default_sweep_options(), std::runtime_error);
  ASSERT_EQ(setenv("MTR_BENCH_SCALE", "nan", 1), 0);
  EXPECT_THROW(default_sweep_options(), std::runtime_error);
  ASSERT_EQ(unsetenv("MTR_BENCH_SCALE"), 0);

  ASSERT_EQ(setenv("MTR_BENCH_THREADS", "8q", 1), 0);
  EXPECT_THROW(default_sweep_options(), std::runtime_error);
  ASSERT_EQ(setenv("MTR_BENCH_THREADS", "4294967297", 1), 0);
  EXPECT_THROW(default_sweep_options(), std::runtime_error);
  ASSERT_EQ(unsetenv("MTR_BENCH_THREADS"), 0);
}

TEST(RecordsTest, OlderCsvLayoutIsRefusedAtTheHeader) {
  // A stale CSV header (schema v1 had no cell_index column) is refused
  // before any row parses.
  const std::string csv = temp_path("dist_schema.csv");
  write_file(csv, "schema,sweep,attack\n1,grid,a0\n");
  try {
    scan_csv(csv);
    FAIL() << "stale header accepted";
  } catch (const SchemaError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(csv + ":1:"), std::string::npos) << what;
    EXPECT_NE(what.find("(byte 0)"), std::string::npos) << what;
    EXPECT_NE(what.find("older metertrust"), std::string::npos) << what;
  }
  // Beside records of this build, mtr_merge refuses it at line 1: a .csv
  // input must be its records' rendering.
  const std::string jsonl = temp_path("dist_schema.jsonl");
  write_shard_jsonl(jsonl, {0});
  MergeOptions merge;
  merge.csv_out = temp_path("dist_schema_merged.csv");
  merge.csv_in = {csv};
  merge.jsonl_in = {jsonl};
  std::ostringstream out, err;
  EXPECT_EQ(run_merge(merge, out, err), 2);
  EXPECT_NE(err.str().find(csv + ":1: differs from the CSV rendering of " + jsonl),
            std::string::npos)
      << err.str();
  EXPECT_FALSE(std::filesystem::exists(merge.csv_out));
  std::filesystem::remove(csv);
  std::filesystem::remove(jsonl);
}

TEST(RecordsTest, ScanRecoversCompletePrefixFromKilledFile) {
  const std::string path = temp_path("dist_tail.jsonl");
  write_shard_jsonl(path, {0, 1});
  const std::string full = read_file(path);

  // Drop the final cell-summary line: cell 1 becomes a dangling tail.
  keep_lines(path, 5);
  FileScan scan = scan_jsonl(path);
  EXPECT_FALSE(scan.clean);
  ASSERT_EQ(scan.blocks.size(), 1u);
  EXPECT_EQ(scan.blocks[0].key.cell_index, 0u);
  // The valid prefix ends exactly where cell 0's block ends.
  const auto lines = lines_of(full);
  std::size_t block0_bytes = 0;
  for (std::size_t i = 0; i < 3; ++i) block0_bytes += lines[i].size() + 1;
  EXPECT_EQ(scan.valid_bytes, block0_bytes);

  // A truncated final line (kill mid-write) is tail garbage, not data.
  write_file(path, full.substr(0, full.size() - 10));
  scan = scan_jsonl(path);
  EXPECT_FALSE(scan.clean);
  EXPECT_EQ(scan.blocks.size(), 1u);
  std::filesystem::remove(path);
}

TEST(MergeTest, SyntheticShardsMergeByteIdentically) {
  const std::string root = temp_path("dist_merge_synth");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/all.jsonl", {0, 1, 2, 3});
  write_shard_jsonl(root + "/s0.jsonl", {0, 2});
  write_shard_jsonl(root + "/s1.jsonl", {1, 3});

  // Input order must not matter: cells come back in cell_index order.
  const std::string merged =
      merge_jsonl({root + "/s1.jsonl", root + "/s0.jsonl"});
  EXPECT_EQ(merged, read_file(root + "/all.jsonl"));
  std::filesystem::remove_all(root);
}

TEST(MergeTest, DuplicateCellsAreReportedWithCoordinates) {
  const std::string root = temp_path("dist_merge_dup");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/s0.jsonl", {0, 1});
  write_shard_jsonl(root + "/s1.jsonl", {1, 2});
  try {
    merge_jsonl({root + "/s0.jsonl", root + "/s1.jsonl"});
    FAIL() << "expected duplicate-cell error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("duplicate cell 1"), std::string::npos) << what;
    EXPECT_NE(what.find("attack=a1"), std::string::npos) << what;
    EXPECT_NE(what.find("s0.jsonl"), std::string::npos) << what;
    EXPECT_NE(what.find("s1.jsonl"), std::string::npos) << what;
  }
  std::filesystem::remove_all(root);
}

TEST(MergeTest, GapsMissingEmptyAndIncompleteInputsFail) {
  const std::string root = temp_path("dist_merge_bad");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  // Gap: shards 0 and 2 of 3 merged without shard 1's output.
  write_shard_jsonl(root + "/s0.jsonl", {0, 3});
  write_shard_jsonl(root + "/s2.jsonl", {2});
  try {
    merge_jsonl({root + "/s0.jsonl", root + "/s2.jsonl"});
    FAIL() << "expected gap error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing cell(s) 1"),
              std::string::npos)
        << e.what();
  }

  // Missing files fail; merging nothing but empty files fails.
  EXPECT_THROW(merge_jsonl({root + "/nope.jsonl"}), std::runtime_error);
  write_file(root + "/empty.jsonl", "");
  try {
    merge_jsonl({root + "/empty.jsonl"});
    FAIL() << "expected empty-input error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no complete cells"), std::string::npos)
        << e.what();
  }

  // But an empty file next to real shards is fine: a shard can own zero
  // cells of a small sweep.
  write_shard_jsonl(root + "/full.jsonl", {0, 1});
  EXPECT_EQ(merge_jsonl({root + "/full.jsonl", root + "/empty.jsonl"}),
            read_file(root + "/full.jsonl"));

  // A killed shard (runs without their summary) must be resumed, not
  // merged.
  write_shard_jsonl(root + "/killed.jsonl", {0, 1});
  keep_lines(root + "/killed.jsonl", 5);
  try {
    merge_jsonl({root + "/killed.jsonl"});
    FAIL() << "expected incomplete-shard error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("--resume"), std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(root);
}

TEST(MergeTest, CorruptAggregateIsDetected) {
  const std::string root = temp_path("dist_merge_corrupt");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/s.jsonl", {0});

  // Tamper with a stat inside a run record: the recomputed cell aggregate
  // no longer matches the recorded summary.
  std::string bytes = read_file(root + "/s.jsonl");
  const std::size_t at = bytes.find("\"wall_seconds\":1");
  ASSERT_NE(at, std::string::npos);
  bytes.replace(at, 16, "\"wall_seconds\":9");
  write_file(root + "/s.jsonl", bytes);
  try {
    merge_jsonl({root + "/s.jsonl"});
    FAIL() << "expected aggregate-mismatch error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("recomputed aggregate"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(root);
}

TEST(MergeTest, HandEditedRunLineExitsTwoNamingFileAndLine) {
  const std::string root = temp_path("dist_merge_edited");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/s0.jsonl", {0, 2});
  write_shard_jsonl(root + "/s1.jsonl", {1});

  // Cell 2's second run (line 5 of s0; its summary is line 6).
  std::vector<std::string> lines = lines_of(read_file(root + "/s0.jsonl"));
  ASSERT_EQ(lines.size(), 6u);
  const std::size_t at = lines[4].find("\"billed_seconds\":");
  ASSERT_NE(at, std::string::npos);
  lines[4].insert(at + 17, "1");
  std::string edited;
  for (const std::string& line : lines) edited += line + "\n";
  write_file(root + "/s0.jsonl", edited);

  MergeOptions o;
  o.jsonl_out = root + "/m.jsonl";
  o.jsonl_in = {root + "/s0.jsonl", root + "/s1.jsonl"};
  std::ostringstream out, err;
  EXPECT_EQ(run_merge(o, out, err), static_cast<int>(MergeFault::kCorrupt));
  EXPECT_NE(err.str().find(root + "/s0.jsonl:6: recomputed aggregate for cell 2"),
            std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("run records at lines 4-5"), std::string::npos)
      << err.str();
  EXPECT_FALSE(std::filesystem::exists(o.jsonl_out));
  std::filesystem::remove_all(root);
}

/// Cell 0 with three seed-invariant replicates: one result copied into
/// every seed, aggregated as BatchRunner aggregates.
core::CellStats invariant_cell() {
  core::ExperimentResult r = synth_cell(0, {7}).runs[0];
  r.seed_dependent = false;
  r.pop_true_seconds.add(1.5);
  r.pop_true_seconds.add(2.5);
  core::CellStats cell = synth_cell(0, {});
  cell.seeds = {7, 8, 9};
  for (int i = 0; i < 3; ++i) {
    cell.runs.push_back(r);
    cell.for_each_stat(
        [&](const char*, RunningStats& stat, auto get) { stat.add(get(r)); });
    cell.for_each_sketch(
        [&](const char*, QuantileSketch& sketch, auto get) { sketch.merge(get(r)); });
  }
  return cell;
}

TEST(MergeTest, TheRepeatedBodyMemoCannotHideAnEditedRun) {
  // Run 2 (line 2) repeats run 1's body byte for byte, so the merge check
  // adds run 1's parse again for it. Each edit below must still exit 2
  // naming the file and line: one digit of run 2's last token (a memo
  // keyed on a prefix of the body would miss it), one digit inside its
  // body (the recomputed aggregate no longer matches), and its seed alone
  // (the body memo hits; the seed check must refuse it).
  const std::string root = temp_path("dist_merge_memo");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string path = root + "/s.jsonl";
  {
    report::JsonlSink sink(path);
    sink.write_cell("grid", invariant_cell());
  }
  const std::vector<std::string> clean = lines_of(read_file(path));
  ASSERT_EQ(clean.size(), 4u);
  const std::size_t body = clean[1].find("\"workload\":");
  ASSERT_NE(body, std::string::npos);
  ASSERT_EQ(clean[1].substr(body), clean[0].substr(clean[0].find("\"workload\":")));

  const auto merge = [&](const std::string& line2) {
    std::vector<std::string> lines = clean;
    lines[1] = line2;
    std::string edited;
    for (const std::string& line : lines) edited += line + "\n";
    write_file(path, edited);
    MergeOptions o;
    o.jsonl_out = root + "/m.jsonl";
    o.jsonl_in = {path};
    std::ostringstream out, err;
    const int rc = run_merge(o, out, err);
    return std::make_pair(rc, err.str());
  };
  const auto replace_digit = [](std::string line, std::size_t at) {
    EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(line[at]))) << line;
    line[at] = line[at] == '1' ? '2' : '1';
    return line;
  };

  EXPECT_EQ(merge(clean[1]).first, 0);

  // The last token is run 2's pop_advantage_sketch: its count digit.
  const std::size_t last = clean[1].rfind("\"pop_advantage_sketch\":\"");
  ASSERT_NE(last, std::string::npos);
  auto [rc, err] = merge(replace_digit(clean[1], last + 24));
  EXPECT_EQ(rc, static_cast<int>(MergeFault::kCorrupt));
  EXPECT_NE(err.find(path + ":2: run record of cell 0"), std::string::npos) << err;
  EXPECT_NE(err.find("pop_advantage_sketch"), std::string::npos) << err;

  const std::size_t wall = clean[1].find("\"wall_seconds\":");
  ASSERT_NE(wall, std::string::npos);
  std::tie(rc, err) = merge(replace_digit(clean[1], wall + 15));
  EXPECT_EQ(rc, static_cast<int>(MergeFault::kCorrupt));
  EXPECT_NE(err.find(path + ":4: recomputed aggregate for cell 0"), std::string::npos)
      << err;
  EXPECT_NE(err.find("run records at lines 1-3"), std::string::npos) << err;

  const std::size_t seed = clean[1].find("\"seed\":8,");
  ASSERT_NE(seed, std::string::npos);
  std::string reseeded = clean[1];
  reseeded[seed + 7] = '2';
  std::tie(rc, err) = merge(reseeded);
  EXPECT_EQ(rc, static_cast<int>(MergeFault::kCorrupt));
  EXPECT_NE(err.find(path + ":2: run record of cell 0"), std::string::npos) << err;
  EXPECT_NE(err.find("has seed 2 where its cell's consecutive seeds need 8"),
            std::string::npos)
      << err;
  std::filesystem::remove_all(root);
}

TEST(RecordsTest, StrictParseRejectsGarbageIntegers) {
  EXPECT_EQ(parse_u64("0"), std::uint64_t{0});
  EXPECT_EQ(parse_u64("12"), std::uint64_t{12});
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  // Everything bare std::stoull would have let through: trailing garbage,
  // leading whitespace, explicit signs, hex, wrapped negatives, overflow.
  for (const char* bad : {"", " 12", "12 ", "12abc", "+12", "+0x1f", "-3",
                          "0x1f", "1e3", "18446744073709551616",
                          "99999999999999999999"})
    EXPECT_FALSE(parse_u64(bad).has_value()) << "'" << bad << "'";
  // The double parser backing --scale is full-match strict too.
  EXPECT_TRUE(parse_f64("2.5").has_value());
  EXPECT_FALSE(parse_f64("2x").has_value());
  EXPECT_FALSE(parse_f64(" 2").has_value());
}

TEST(RecordsTest, ScanErrorsNameFileLineAndField) {
  // JSONL: mangle the second run record's cell_index into "+0" — strict
  // parsing must stop the scan naming the file, the 1-based line, and the
  // field, and keep the (empty) valid prefix.
  const std::string jsonl = temp_path("dist_err_field.jsonl");
  write_shard_jsonl(jsonl, {0});
  {
    auto lines = lines_of(read_file(jsonl));
    ASSERT_EQ(lines.size(), 3u);
    const std::size_t at = lines[1].find("\"cell_index\":0");
    ASSERT_NE(at, std::string::npos);
    lines[1].replace(at, 14, "\"cell_index\":+0");
    write_file(jsonl, lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n");
  }
  FileScan scan = scan_jsonl(jsonl);
  EXPECT_FALSE(scan.clean);
  EXPECT_NE(scan.tail_error.find(jsonl + ":2"), std::string::npos)
      << scan.tail_error;
  EXPECT_NE(scan.tail_error.find("'cell_index'"), std::string::npos)
      << scan.tail_error;

  // CSV: same corruption in the second data row (file line 3).
  const std::string csv = temp_path("dist_err_field.csv");
  {
    report::CsvSink sink(csv);
    sink.write_cell("grid", synth_cell(0, {7, 8}));
    auto lines = lines_of(read_file(csv));
    ASSERT_EQ(lines.size(), 3u);
    ASSERT_EQ(lines[2].rfind("4,grid,0,", 0), 0u) << lines[2];
    lines[2].replace(0, 9, "4,grid,0x0,");
    write_file(csv, lines[0] + "\n" + lines[1] + "\n" + lines[2] + "\n");
  }
  scan = scan_csv(csv);
  EXPECT_FALSE(scan.clean);
  EXPECT_NE(scan.tail_error.find(csv + ":3"), std::string::npos)
      << scan.tail_error;
  EXPECT_NE(scan.tail_error.find("'cell_index'"), std::string::npos)
      << scan.tail_error;
  EXPECT_NE(scan.tail_error.find("'0x0'"), std::string::npos)
      << scan.tail_error;
  std::filesystem::remove(jsonl);
  std::filesystem::remove(csv);
}

// ---------------------------------------------------------------------------
// The cell key against the checked-in fig04 golden: every coordinate column
// pinned through both scanners, resume and merge (one changed value stops
// with a message naming the cell or the field, the file line and the
// byte), strict coordinate numbers (no hex, no whitespace, finite only),
// and a SplitMix64-driven mutation loop: every damaged file fails as a
// positioned diagnostic whose valid prefix rescans clean to the same
// blocks.

const std::string kGoldenCsv = std::string(MTR_GOLDEN_DIR) + "/fig04.csv";
const std::string kGoldenJsonl = std::string(MTR_GOLDEN_DIR) + "/fig04.jsonl";
const std::vector<std::uint64_t> kGoldenSeeds = {42, 43};

/// The coordinate columns besides cell_index; `text` marks the quoted ones.
struct Coordinate {
  const char* name;
  bool text;
};
constexpr Coordinate kCoordinates[] = {
    {"sweep", true},          {"attack", true},         {"scheduler", true},
    {"hz", false},            {"cpu_hz", false},        {"ram_frames", false},
    {"reclaim_batch", false}, {"ptrace", true},         {"jiffy_timers", false},
    {"population", false},    {"attacker_fraction", false},
    {"victim_nice", false},   {"attacker_nice", false},
};

std::string join_lines(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + '\n';
  return out;
}

/// Byte offset where 1-based line `n` starts.
std::uint64_t line_offset(const std::vector<std::string>& lines,
                          std::size_t n) {
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) offset += lines[i].size() + 1;
  return offset;
}

std::string at_byte(std::uint64_t offset) {
  return " (byte " + std::to_string(offset) + ")";
}

/// A different value of the same type: text grows a suffix, booleans flip,
/// numbers become 1 (2 when they already are 1).
std::string other_value(const std::string& v, bool text) {
  if (text) return v + "x";
  if (v == "true" || v == "false") return v == "true" ? "false" : "true";
  return v == "1" ? "2" : "1";
}

/// Offset and length of the raw token of `key` in one flat JSONL line.
std::pair<std::size_t, std::size_t> json_token_at(const std::string& line,
                                                  const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t at = line.find(tag);
  EXPECT_NE(at, std::string::npos) << "no " << key << " in " << line;
  const std::size_t from = at + tag.size();
  const std::size_t to = line[from] == '"' ? line.find('"', from + 1) + 1
                                           : line.find_first_of(",}", from);
  return {from, to - from};
}

std::string with_json_token(std::string line, const std::string& key,
                            const std::string& token) {
  const auto [from, n] = json_token_at(line, key);
  return line.replace(from, n, token);
}

/// The same line with coordinate `c` set to a different valid value.
std::string with_other_json(const std::string& line, const Coordinate& c) {
  const auto [from, n] = json_token_at(line, c.name);
  const std::string v = line.substr(from, n);
  return with_json_token(
      line, c.name,
      c.text ? v.substr(0, n - 1) + "x\"" : other_value(v, false));
}

/// One CSV row with column `key` replaced by `value`.
std::string with_csv_value(const std::string& header, const std::string& row,
                           const std::string& key, const std::string& value) {
  const std::vector<std::string> names = report::split_csv_line(header);
  std::vector<std::string> cells = report::split_csv_line(row);
  std::string out;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (names[i] == key) cells[i] = value;
    if (i) out += ',';
    report::append_csv_escaped(out, cells[i]);
  }
  return out;
}

std::string csv_value(const std::string& header, const std::string& row,
                      const std::string& key) {
  const std::vector<std::string> names = report::split_csv_line(header);
  const std::vector<std::string> cells = report::split_csv_line(row);
  for (std::size_t i = 0; i < names.size(); ++i)
    if (names[i] == key) return cells[i];
  ADD_FAILURE() << "no CSV column " << key;
  return "";
}

// fig04 at 2 seeds: 8 cells. JSONL cell k is lines 3k+1..3k+3 (two runs,
// then the summary); CSV cell k is rows 2k+2 and 2k+3 after the header.

TEST(CellKeyScanTest, EveryCoordinateChangedInOneJsonlRunLineStopsThere) {
  // Cell 2's second run (line 8) repeats its first run's body byte for
  // byte, so the scan reads it only up to its head: a changed head column,
  // a changed population column (which sits in the body) and a skipped
  // seed_index must each still stop the scan there.
  const std::vector<std::string> lines = lines_of(read_file(kGoldenJsonl));
  ASSERT_EQ(lines.size(), 24u);
  const auto body = [](const std::string& line) {
    return line.substr(line.find(",\"workload\":"));
  };
  ASSERT_EQ(body(lines[6]), body(lines[7]));
  const std::string path = temp_path("key_pin.jsonl");
  std::vector<std::pair<std::string, std::string>> edits;  // line 8, error
  for (const Coordinate& c : kCoordinates)
    edits.emplace_back(with_other_json(lines[7], c),
                       "cell 2 has run records but no summary");
  edits.emplace_back(with_json_token(lines[7], "seed_index", "2"),
                     "seed_index discontinuity in cell 2");
  for (const auto& [edited, error] : edits) {
    SCOPED_TRACE(edited.substr(0, 200));
    std::vector<std::string> mutated = lines;
    mutated[7] = edited;
    ASSERT_NE(mutated[7], lines[7]);
    write_file(path, join_lines(mutated));
    const FileScan scan = scan_jsonl(path);
    EXPECT_FALSE(scan.clean);
    EXPECT_EQ(scan.tail_error,
              path + ":8: " + error + at_byte(line_offset(lines, 8)));
    EXPECT_EQ(scan.valid_bytes, line_offset(lines, 7));
    EXPECT_EQ(scan.blocks.size(), 2u);
  }
  std::filesystem::remove(path);
}

/// A field of a flat JSONL line, as its offset and its `,"key":token` text.
std::pair<std::size_t, std::string> field_at(const std::string& line,
                                             const std::string& key) {
  const auto [from, n] = json_token_at(line, key);
  const std::size_t begin = from - key.size() - 4;  // the comma before "key":
  return {begin, line.substr(begin, from + n - begin)};
}

TEST(RecordLayoutScanTest, AKeyMovedRepeatedDroppedOrAddedStopsEveryReader) {
  // fig04's cell 2: its second run record (line 8) and its summary (line
  // 9), each edited once. The scan stops at the edited line naming the
  // first key out of place, resume keeps cells 0 and 1, and mtr_merge
  // refuses the file.
  const std::vector<std::string> lines = lines_of(read_file(kGoldenJsonl));
  ASSERT_EQ(lines.size(), 24u);
  const std::string& run = lines[7];
  const std::string& summary = lines[8];
  struct Edit {
    std::size_t line;  // 1-based
    std::string label;
    std::string text;
    std::string error;
  };
  std::vector<Edit> edits;
  const auto edit = [&](std::size_t line, const std::string& label,
                        const std::string& key, const std::string& how,
                        const std::string& found, const std::string& puts) {
    const std::string& original = lines[line - 1];
    const auto [at, field] = field_at(original, key);
    std::string text = original;
    std::size_t column = at;
    if (how == "moved") {
      text.erase(at, field.size());
      text.insert(text.size() - 1, field);
    } else if (how == "repeated") {
      text.insert(at + field.size(), field);
      column = at + field.size();
    } else if (how == "dropped") {
      text.erase(at, field.size());
    } else {  // an extra key before this one
      text.insert(at, ",\"extra\":1");
    }
    const std::string kind = line == 8 ? "run record" : "cell summary";
    edits.push_back({line, label, text,
                     kind + " has '" + found + "' at column " +
                         std::to_string(column) + " where the writer puts '" +
                         puts + "'"});
  };
  edit(8, "run: a body key moved", "minor_faults", "moved", "major_faults",
       "minor_faults");
  edit(8, "run: a head key repeated", "seed", "repeated", "seed", "seed_index");
  edit(8, "run: a key dropped", "witness", "dropped", "witness_steps", "witness");
  edit(8, "run: a key added", "workload", "added", "extra", "workload");
  edit(9, "summary: a key moved", "seeds", "moved", "source_ok", "seeds");
  edit(9, "summary: a key repeated", "workload", "repeated", "workload", "seeds");
  edit(9, "summary: a key dropped", "source_ok", "dropped", "overcharge",
       "source_ok");
  edit(9, "summary: a key added", "sweep", "added", "extra", "sweep");
  // A key added after the last one.
  edits.push_back({8, "run: a key added at the end",
                   std::string(run).insert(run.size() - 1, ",\"extra\":1"),
                   "run record has 'extra' at column " +
                       std::to_string(run.size() - 1) +
                       " after its last key 'pop_advantage_sketch'"});
  const std::size_t last = summary.find(",\"pop_advantage_dist\":");
  edits.push_back({9, "summary: its last key dropped",
                   summary.substr(0, last) + "}",
                   "cell summary ends at column " + std::to_string(last) +
                       " where the writer puts 'pop_advantage_dist'"});

  const std::string dir = temp_path("key_layout");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/fig04.jsonl";
  for (const Edit& e : edits) {
    SCOPED_TRACE(e.label);
    std::vector<std::string> edited = lines;
    ASSERT_NE(e.text, edited[e.line - 1]);
    edited[e.line - 1] = e.text;
    write_file(path, join_lines(edited));

    const std::string refusal = path + ":" + std::to_string(e.line) + ": " +
                                e.error + at_byte(line_offset(lines, e.line));
    const FileScan scan = scan_jsonl(path);
    EXPECT_FALSE(scan.clean);
    EXPECT_EQ(scan.tail_error, refusal);
    EXPECT_EQ(scan.blocks.size(), 2u);
    EXPECT_EQ(scan.valid_bytes, line_offset(lines, 7));

    const ResumeIndex resume = ResumeIndex::scan(path, {42, 43});
    EXPECT_EQ(resume.size(), 2u);
    EXPECT_EQ(resume.valid_bytes(), line_offset(lines, 7));

    MergeOptions o;
    o.jsonl_out = dir + "/merged.jsonl";
    o.jsonl_in = {path};
    std::ostringstream out, err;
    EXPECT_EQ(run_merge(o, out, err), 2);
    EXPECT_NE(err.str().find(refusal), std::string::npos) << err.str();
    EXPECT_FALSE(std::filesystem::exists(o.jsonl_out));
  }
  std::filesystem::remove_all(dir);
}

TEST(ScanMemoTest, CopiedReplicatesScanToTheirBlockAndSummary) {
  // A 250-seed cell whose every run is the first's, as a seed-invariant
  // cell is written: the scan reads one body, and the block and the
  // recomputed summary are still the cell's.
  core::CellStats cell = synth_cell(3, {});
  const core::ExperimentResult r = synth_cell(3, {42}).runs[0];
  for (std::uint64_t s = 42; s < 42 + 250; ++s) {
    cell.seeds.push_back(s);
    cell.runs.push_back(r);
    cell.for_each_stat(
        [&](const char*, RunningStats& stat, auto get) { stat.add(get(r)); });
  }
  const std::string path = temp_path("scan_memo_250.jsonl");
  report::JsonlSink(path).write_cell("grid", cell);
  const std::string bytes = read_file(path);
  const std::vector<std::string> lines = lines_of(bytes);
  ASSERT_EQ(lines.size(), 251u);

  std::size_t repeats = 0;
  JsonlVisitor count;
  count.on_run = [&repeats](const CellBlock&, std::uint64_t,
                            const report::RecordWalker&, bool repeat) {
    repeats += repeat;
  };
  const FileScan scan = scan_jsonl_records(path, count);
  EXPECT_EQ(repeats, 249u);  // every run after the first
  ASSERT_TRUE(scan.clean) << scan.tail_error;
  ASSERT_EQ(scan.blocks.size(), 1u);
  const CellBlock& b = scan.blocks[0];
  EXPECT_EQ(b.key, report::cell_key("grid", 3, cell));
  EXPECT_EQ(b.first_line, 1u);
  EXPECT_EQ(b.seeds, cell.seeds);
  EXPECT_EQ(b.begin_offset, 0u);
  EXPECT_EQ(b.end_offset, bytes.size());
  EXPECT_EQ(scan.valid_bytes, bytes.size());
  // mtr_merge recomputes the summary from the run records and refuses a
  // mismatch, so an equal merge is an equal recomputed summary.
  EXPECT_EQ(merge_jsonl({path}), bytes);
  // A summary recomputed from one run read 250 times differs from one
  // recomputed from a changed run: the check still reads the copies.
  std::vector<std::string> edited = lines;
  edited[249] = with_json_token(edited[249], "billed_seconds", "9");
  write_file(path, join_lines(edited));
  EXPECT_TRUE(scan_jsonl(path).clean);
  try {
    merge_jsonl({path});
    ADD_FAILURE() << "a changed run merged";
  } catch (const MergeError& e) {
    EXPECT_NE(std::string(e.what()).find("recomputed aggregate"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(CellKeyScanTest, EveryCoordinateChangedInACellsSecondCsvRowConflicts) {
  const std::vector<std::string> lines = lines_of(read_file(kGoldenCsv));
  ASSERT_EQ(lines.size(), 17u);
  const std::string path = temp_path("key_pin.csv");
  for (const Coordinate& c : kCoordinates) {
    SCOPED_TRACE(c.name);
    std::vector<std::string> mutated = lines;
    mutated[6] = with_csv_value(  // cell 2, second row
        lines[0], lines[6], c.name,
        other_value(csv_value(lines[0], lines[6], c.name), c.text));
    ASSERT_NE(mutated[6], lines[6]);
    write_file(path, join_lines(mutated));
    const FileScan scan = scan_csv(path);
    EXPECT_FALSE(scan.clean);
    EXPECT_EQ(scan.tail_error,
              path + ":7: conflicting coordinates within cell 2" +
                  at_byte(line_offset(lines, 7)));
    EXPECT_EQ(scan.valid_bytes, line_offset(lines, 6));
  }
  std::filesystem::remove(path);
}

TEST(CellKeyScanTest, ACsvInputWithAnyCoordinateChangedIsRefusedAtItsRow) {
  // No decision reads the CSV: mtr_merge checks a .csv input against its
  // records' rendering, so one changed coordinate stops it at that row.
  const std::vector<std::string> lines = lines_of(read_file(kGoldenCsv));
  ASSERT_EQ(lines.size(), 17u);
  const std::string dir = temp_path("key_check");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string csv = dir + "/fig04.csv";
  const std::string jsonl = dir + "/fig04.jsonl";
  write_file(jsonl, read_file(kGoldenJsonl));
  for (const Coordinate& c : kCoordinates) {
    SCOPED_TRACE(c.name);
    std::vector<std::string> mutated = lines;
    mutated[5] = with_csv_value(  // cell 2, first row
        lines[0], lines[5], c.name,
        other_value(csv_value(lines[0], lines[5], c.name), c.text));
    write_file(csv, join_lines(mutated));
    MergeOptions o;
    o.csv_out = dir + "/merged.csv";
    o.csv_in = {csv};
    o.jsonl_in = {jsonl};
    std::ostringstream out, err;
    EXPECT_EQ(run_merge(o, out, err), 2);
    EXPECT_NE(err.str().find(csv + ":6: differs from the CSV rendering of " +
                             jsonl + at_byte(line_offset(lines, 6))),
              std::string::npos)
        << err.str();
    EXPECT_FALSE(std::filesystem::exists(o.csv_out));
  }
  std::filesystem::remove_all(dir);
}

TEST(CellKeyScanTest, MalformedEscapesAreRefusedNamingTheField) {
  // Record strings decode through the document parser's decoder, which
  // refuses an unknown escape and a \u escape with non-hex digits.
  const std::vector<std::string> lines = lines_of(read_file(kGoldenJsonl));
  ASSERT_EQ(lines.size(), 24u);
  const std::string path = temp_path("escape.jsonl");
  for (const std::string bad : {"\\q", "\\u00zz"}) {
    for (const std::string column : {"sweep", "workload"}) {
      SCOPED_TRACE(column + " holding " + bad);
      std::vector<std::string> mutated = lines;
      // Cell 2's first run record, line 7.
      mutated[6] = with_json_token(mutated[6], column, "\"fig" + bad + "04\"");
      write_file(path, join_lines(mutated));
      if (column == "sweep") {  // a key column: the scan stops there
        const FileScan scan = scan_jsonl(path);
        EXPECT_FALSE(scan.clean);
        EXPECT_EQ(scan.tail_error,
                  path + ":7: record missing or invalid field 'sweep'" +
                      at_byte(line_offset(lines, 7)));
      }
      MergeOptions o;
      o.jsonl_out = temp_path("escape_out.jsonl");
      o.jsonl_in = {path};
      std::ostringstream out, err;
      EXPECT_EQ(run_merge(o, out, err), 2);
      EXPECT_NE(err.str().find("'" + column + "'"), std::string::npos)
          << err.str();
    }
  }
  std::filesystem::remove(path);
}

TEST(CellKeyScanTest, CoordinateNumbersAreStrictInBothFormats) {
  const std::vector<std::string> jsonl_lines =
      lines_of(read_file(kGoldenJsonl));
  const std::vector<std::string> csv_lines = lines_of(read_file(kGoldenCsv));
  ASSERT_EQ(jsonl_lines.size(), 24u);
  ASSERT_EQ(csv_lines.size(), 17u);
  const std::string jsonl = temp_path("key_strict.jsonl");
  const std::string csv = temp_path("key_strict.csv");
  for (const char* token : {"0x0p0", " 0", "nan", "inf"}) {
    SCOPED_TRACE(std::string("'") + token + "'");
    // Cell 2's first run record: JSONL line 7, CSV line 6.
    std::vector<std::string> j = jsonl_lines;
    j[6] = with_json_token(j[6], "attacker_fraction", token);
    write_file(jsonl, join_lines(j));
    std::vector<std::string> c = csv_lines;
    c[5] = with_csv_value(c[0], c[5], "attacker_fraction", token);
    write_file(csv, join_lines(c));

    for (const auto& [path, line, offset] :
         {std::tuple{jsonl, 7, line_offset(jsonl_lines, 7)},
          std::tuple{csv, 6, line_offset(csv_lines, 6)}}) {
      const FileScan scan = path == jsonl ? scan_jsonl(path) : scan_csv(path);
      EXPECT_FALSE(scan.clean) << path;
      const std::string at_line = path + ":" + std::to_string(line) + ": ";
      EXPECT_EQ(scan.tail_error.rfind(at_line, 0), 0u) << scan.tail_error;
      EXPECT_NE(scan.tail_error.find("'attacker_fraction'"), std::string::npos)
          << scan.tail_error;
      EXPECT_TRUE(scan.tail_error.ends_with(at_byte(offset)))
          << scan.tail_error;
      if (path == csv) continue;  // mtr_merge reads only the records

      MergeOptions o;
      o.jsonl_out = temp_path("key_strict_out");
      o.jsonl_in = {path};
      std::ostringstream out, err;
      EXPECT_EQ(run_merge(o, out, err), 2) << path;
      EXPECT_NE(err.str().find("'attacker_fraction'"), std::string::npos)
          << err.str();
    }
  }
  std::filesystem::remove(jsonl);
  std::filesystem::remove(csv);
}

/// The comparable content of a block.
bool same_block(const CellBlock& a, const CellBlock& b) {
  return a.key == b.key && a.first_line == b.first_line &&
         a.seeds == b.seeds && a.begin_offset == b.begin_offset &&
         a.end_offset == b.end_offset;
}

/// Applies one seeded mutation: a byte flip, a truncation, or dropping or
/// duplicating a line.
std::string mutate(const std::string& bytes, SplitMix64& rng) {
  std::string out = bytes;
  const std::uint64_t r = rng.next();
  switch (rng.next() % 4) {
    case 0:
      out[r % out.size()] ^= static_cast<char>(1 + rng.next() % 255);
      return out;
    case 1:
      return out.substr(0, r % out.size());
    default: {
      std::vector<std::string> lines = lines_of(out);
      const std::size_t at = r % lines.size();
      if (rng.next() % 2 == 0) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(at));
      } else {
        const std::string copy = lines[at];
        lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(at), copy);
      }
      return join_lines(lines);
    }
  }
}

/// The mutation invariants for one scanner over one golden file.
void fuzz_scanner(const std::string& golden, const std::string& name,
                  FileScan (*scanner)(const std::string&)) {
  constexpr int kMutations = 100;  // ~1 s for both files under ASan
  const std::string original = read_file(golden);
  ASSERT_FALSE(original.empty());
  const std::string path = temp_path("fuzz_" + name);
  const std::string prefix_path = temp_path("fuzz_prefix_" + name);
  SplitMix64 rng(0x5EED0000 + original.size());
  for (int i = 0; i < kMutations; ++i) {
    const std::string bytes = mutate(original, rng);
    SCOPED_TRACE("mutation " + std::to_string(i));
    write_file(path, bytes);
    FileScan scan;
    try {
      scan = scanner(path);
    } catch (const std::runtime_error& e) {  // SchemaError included
      EXPECT_EQ(std::string(e.what()).rfind(path + ":", 0), 0u) << e.what();
      continue;
    } catch (...) {
      ADD_FAILURE() << "scanner threw something other than std::runtime_error";
      continue;
    }
    EXPECT_LE(scan.valid_bytes, bytes.size());
    if (!scan.clean) {
      const std::string& e = scan.tail_error;
      ASSERT_EQ(e.rfind(path + ":", 0), 0u) << e;
      const std::size_t line_end = e.find(':', path.size() + 1);
      ASSERT_NE(line_end, std::string::npos) << e;
      const std::string line =
          e.substr(path.size() + 1, line_end - path.size() - 1);
      EXPECT_TRUE(parse_u64(line).has_value()) << e;
      const std::size_t open = e.rfind(" (byte ");
      ASSERT_NE(open, std::string::npos) << e;
      ASSERT_TRUE(e.ends_with(")")) << e;
      const auto byte = parse_u64(e.substr(open + 7, e.size() - open - 8));
      ASSERT_TRUE(byte.has_value()) << e;
      EXPECT_LE(*byte, bytes.size()) << e;
    }
    // The valid prefix is exactly the complete blocks, and scans clean.
    write_file(prefix_path, bytes.substr(0, scan.valid_bytes));
    const FileScan again = scanner(prefix_path);
    EXPECT_TRUE(again.clean) << again.tail_error;
    std::vector<const CellBlock*> closed;
    for (const CellBlock& b : scan.blocks)
      if (b.end_offset <= scan.valid_bytes) closed.push_back(&b);
    ASSERT_EQ(again.blocks.size(), closed.size());
    for (std::size_t k = 0; k < closed.size(); ++k)
      EXPECT_TRUE(same_block(again.blocks[k], *closed[k])) << "block " << k;
  }
  std::filesystem::remove(path);
  std::filesystem::remove(prefix_path);
}

/// The token of `key`, reading a repeated key as its last occurrence, as
/// a JSON object does; nullopt when the line lacks it.
std::optional<std::string_view> last_token(const std::vector<test::JsonField>& fields,
                                           std::string_view key) {
  for (auto it = fields.rbegin(); it != fields.rend(); ++it)
    if (it->key == key) return it->token;
  return std::nullopt;
}

/// `line` with one of its fields (never "record") moved before the close,
/// dropped, or joined by an extra field at a field boundary, as `how`
/// (0, 1, 2) and `r` pick.
std::string with_field_edited(const std::string& line, int how,
                              std::uint64_t r) {
  const std::vector<test::JsonField> fields = test::json_fields(line).value();
  const test::JsonField& f = fields[1 + r % (fields.size() - 1)];
  const std::size_t from = static_cast<std::size_t>(f.key.data() - line.data()) - 2;
  const std::size_t to =
      static_cast<std::size_t>(f.token.data() + f.token.size() - line.data());
  const std::string field = line.substr(from, to - from);  // ,"key":token
  std::string out = line;
  if (how == 2) return out.insert(from, ",\"extra\":" + std::to_string(r % 10));
  out.erase(from, to - from);
  if (how == 0) out.insert(out.size() - 1, field);
  return out;
}

TEST(TokenizerMutationTest, TheWalkerAcceptsExactlyTheWritersLayoutOnDamagedLines) {
  // Every golden line, byte-flipped, cut short, given a repeated key, or
  // with a field moved, dropped or added. parse_json_line's map and an
  // order-keeping read of the fields (test::json_fields) agree on success
  // and on every key's token (a repeated key reads as its last
  // occurrence). The record walker accepts a line exactly when that read
  // finds "record" naming the walker's kind and then the layout's keys in
  // order, and it then holds the same tokens.
  const std::vector<std::string> golden = lines_of(read_file(kGoldenJsonl));
  ASSERT_FALSE(golden.empty());
  SplitMix64 rng(0x70CE);
  int walked = 0;
  int refused = 0;
  for (int i = 0; i < 2800; ++i) {
    std::string line = golden[rng.next() % golden.size()];
    const std::uint64_t r = rng.next();
    switch (i % 7) {
      case 0: line[r % line.size()] ^= static_cast<char>(1 + rng.next() % 255); break;
      case 1: line.resize(r % line.size()); break;
      case 2: {
        // Repeat the first key with a new value just before the close.
        const std::size_t end = line.find('"', 2);
        std::string repeat = ",";
        repeat += line.substr(1, end);
        repeat += ':';
        repeat += std::to_string(r % 1000);
        line.insert(line.size() - 1, repeat);
        break;
      }
      case 3: case 4: case 5: line = with_field_edited(line, i % 7 - 3, r); break;
      default: break;  // intact
    }
    SCOPED_TRACE(line);
    const std::optional<std::vector<test::JsonField>> read = test::json_fields(line);
    const std::vector<test::JsonField> fields = read.value_or(std::vector<test::JsonField>{});
    const bool flat_ok = read.has_value();
    std::map<std::string, std::string> map;
    ASSERT_EQ(parse_json_line(line, map), flat_ok);
    if (flat_ok) {
      std::set<std::string_view> keys;
      for (const test::JsonField& f : fields) keys.insert(f.key);
      EXPECT_EQ(keys.size(), map.size());
      for (const auto& [key, token] : map)
        EXPECT_EQ(last_token(fields, key), std::optional<std::string_view>(token))
            << key;
      if (i % 7 == 2) {
        EXPECT_EQ(last_token(fields, "record"),
                  std::optional<std::string_view>(std::to_string(r % 1000)));
      }
    }

    const bool is_run = !line.starts_with("{\"record\":\"cell\"");
    const report::RecordLayout& layout =
        is_run ? report::run_layout() : report::cell_layout();
    bool in_layout = flat_ok && fields.size() == 1 + layout.keys.size() &&
                     fields[0].key == "record" &&
                     fields[0].token == (is_run ? "\"run\"" : "\"cell\"");
    for (std::size_t k = 0; in_layout && k < layout.keys.size(); ++k)
      in_layout = fields[1 + k].key == layout.keys[k];
    report::RecordWalker w(layout);
    const bool walks = w.start(line) && w.read_all();
    ASSERT_EQ(walks, in_layout) << w.error();
    if (!walks) {
      ++refused;
      EXPECT_FALSE(w.error().empty());
      continue;
    }
    ++walked;
    for (std::size_t k = 0; k < layout.keys.size(); ++k)
      EXPECT_EQ(w.token(k), fields[1 + k].token) << layout.keys[k];
  }
  EXPECT_GT(walked, 500);
  EXPECT_GT(refused, 1000);
}

TEST(ScannerMutationTest, DamagedGoldensFailAtANamedByteAndTheirPrefixRescans) {
  fuzz_scanner(kGoldenJsonl, "fig04.jsonl", scan_jsonl);
  fuzz_scanner(kGoldenCsv, "fig04.csv", scan_csv);
}

// ---------------------------------------------------------------------------
// The CSV view: every run record renders to its values, and a .csv merge
// input is checked against that rendering.

/// Cell `index` of three replicates whose text and numbers take the
/// spellings the two formats treat differently: JSON escapes, CSV
/// quoting, non-ASCII, empty strings, -0, infinities, NaN, a subnormal and
/// sketches.
core::CellStats awkward_cell(std::uint64_t index, const std::string& label) {
  core::CellStats cell = synth_cell(index, {7, 8, 9});
  cell.attack_label = label;
  core::ExperimentResult& r = cell.runs[0];
  r.attack_name = "comma, \"quote\" and \\backslash";
  r.source_verdict.ok = false;
  r.source_verdict.violations = {"tab\there", "bell\x07unit\x1f", "new\nline",
                                 "cr\rreturn", "non-ASCII: \xc3\xa9 \xe2\x9c\x93",
                                 ""};
  r.wall_seconds = -0.0;
  cell.runs[1].overcharge = std::numeric_limits<double>::infinity();
  cell.runs[1].billed_seconds = -std::numeric_limits<double>::infinity();
  cell.runs[2].true_seconds = std::numeric_limits<double>::quiet_NaN();
  cell.runs[2].tsc_seconds = std::numeric_limits<double>::denorm_min();
  cell.runs[1].pop_true_seconds.add(1.5);
  cell.runs[1].pop_true_seconds.add(-2.5e-300);
  cell.runs[1].pop_true_seconds.add(0.0);
  return cell;
}

TEST(CsvViewTest, EveryRowSplitsBackToItsRecordsValues) {
  // Copied replicates repeat a body, which the renderer reuses; the last
  // two cells' third replicate differs from the second only in the last
  // or the first body token.
  core::CellStats last_token = invariant_cell();
  last_token.runs[2].pop_attacker_advantage.add(1.0);
  core::CellStats first_token = invariant_cell();
  first_token.runs[2].kind = workloads::WorkloadKind::kPi;
  const std::vector<std::pair<std::string, core::CellStats>> cells = {
      {"grid", awkward_cell(0, "a,\"b\"\\c\x01\nd \xc3\xa9")},
      {"we,ird \"sweep\"\\", awkward_cell(1, "")},
      {"grid", invariant_cell()},
      {"grid", last_token},
      {"grid", first_token},
  };
  std::ostringstream csv_bytes, jsonl_bytes;
  {
    report::CsvSink csv(csv_bytes);
    report::JsonlSink jsonl(jsonl_bytes);
    for (const auto& [sweep, cell] : cells) {
      csv.write_cell(sweep, cell);
      jsonl.write_cell(sweep, cell);
    }
  }
  const std::string jsonl = jsonl_bytes.str();
  // The records do hold the awkward spellings.
  for (const char* token :
       {"\\u0001", "\\\"", "\\\\", "\\n", "\\r", "\\t", "\\u0007", "\xc3\xa9",
        "\"attack\":\"\"", "\"wall_seconds\":-0,", ":inf,", ":-inf,", ":nan,",
        ":4.9406564584124654e-324,", "\"pop_true_sketch\":\"3;1;"})
    EXPECT_NE(jsonl.find(token), std::string::npos) << token;

  // Row by row, split_csv_line gives back every string the structs hold,
  // and every other cell is its JSONL token verbatim. The rows are lines
  // because CsvSink's rows hold newlines only inside quotes, which the
  // row-reading splitter below reassembles.
  const std::string csv = csv_bytes.str();
  std::vector<std::string> rows;
  for (std::size_t from = 0, quotes = 0, begin = 0; from < csv.size(); ++from) {
    if (csv[from] == '"') ++quotes;
    if (csv[from] == '\n' && quotes % 2 == 0) {
      rows.push_back(csv.substr(begin, from - begin));
      begin = from + 1;
    }
  }
  const std::vector<std::string>& keys = report::run_layout().keys;
  ASSERT_EQ(report::split_csv_line(rows[0]), keys);
  std::size_t row = 1;
  std::size_t strings = 0;
  const std::vector<std::string> lines = lines_of(jsonl);
  std::size_t line = 0;
  for (const auto& [sweep, cell] : cells) {
    for (std::size_t seed_i = 0; seed_i < cell.runs.size(); ++seed_i) {
      SCOPED_TRACE("row " + std::to_string(row));
      ASSERT_LT(row, rows.size());
      const std::vector<std::string> got = report::split_csv_line(rows[row++]);
      const std::vector<test::Want> want = test::expected_run(sweep, cell, seed_i);
      ASSERT_EQ(got.size(), want.size());
      report::RecordWalker run(report::run_layout());
      ASSERT_TRUE(run.start(lines[line]) && run.read_all()) << run.error();
      ++line;
      for (std::size_t c = 0; c < want.size(); ++c) {
        ASSERT_EQ(keys[c], want[c].key);
        const std::string_view token = run.token(c);
        if (token.front() != '"') {
          EXPECT_EQ(got[c], token) << want[c].key;
          continue;
        }
        ++strings;
        EXPECT_EQ(got[c], want[c].text) << want[c].key;
      }
    }
    ++line;  // the cell summary, which has no row
  }
  EXPECT_EQ(row, rows.size());
  EXPECT_EQ(line, lines.size());
  EXPECT_EQ(strings, 12u * (row - 1));  // every string column was compared

  // The file rendering is the sink's.
  const std::string path = temp_path("csv_view.jsonl");
  write_file(path, jsonl);
  std::ostringstream rendered;
  render_csv(path, jsonl.size(), rendered);
  EXPECT_EQ(rendered.str(), csv);
  std::filesystem::remove(path);

  // The checked-in golden renders to the checked-in golden CSV.
  std::ostringstream golden;
  render_csv(kGoldenJsonl, std::filesystem::file_size(kGoldenJsonl), golden);
  EXPECT_EQ(golden.str(), read_file(kGoldenCsv));
  // A prefix renders to the CSV of its cells; no cells, no bytes.
  const std::vector<std::string> golden_jsonl = lines_of(read_file(kGoldenJsonl));
  const std::vector<std::string> golden_csv = lines_of(read_file(kGoldenCsv));
  std::ostringstream prefix, none;
  render_csv(kGoldenJsonl, line_offset(golden_jsonl, 7), prefix);
  EXPECT_EQ(prefix.str(), join_lines({golden_csv.begin(), golden_csv.begin() + 5}));
  render_csv(kGoldenJsonl, 0, none);
  EXPECT_EQ(none.str(), "");
}

TEST(CsvViewTest, OnlyARunRecordInTheSchemaLayoutHasARow) {
  const std::vector<std::string> lines = lines_of(read_file(kGoldenJsonl));
  const std::vector<std::string> rows = lines_of(read_file(kGoldenCsv));
  // The rows of some lines, or nullopt when the renderer refuses one.
  const auto render = [](const std::vector<std::string>& jsonl)
      -> std::optional<std::string> {
    std::string out;
    try {
      report::append_csv_rows(out, join_lines(jsonl), "x.jsonl", 1);
    } catch (const std::runtime_error&) {
      return std::nullopt;
    }
    return out;
  };
  EXPECT_EQ(render({lines[2]}), "");  // cell 0's summary has no row
  EXPECT_EQ(render({lines[0]}), rows[1] + "\n");
  // Cell 1's two runs share their body bytes; the second reuses its cells.
  ASSERT_EQ(lines[3].substr(lines[3].find(",\"workload\":")),
            lines[4].substr(lines[4].find(",\"workload\":")));
  EXPECT_EQ(render({lines[3], lines[4], lines[5]}),
            rows[3] + "\n" + rows[4] + "\n");

  const std::string run = lines[4];  // cell 1's second run, line 5
  const std::string seeds = "\"seed\":43,\"seed_index\":1";
  ASSERT_NE(run.find(seeds), std::string::npos);
  std::string swapped = run;
  swapped.replace(run.find(seeds), seeds.size(), "\"seed_index\":1,\"seed\":43");
  std::string extra = run;
  extra.insert(extra.size() - 1, ",\"extra\":1");
  const std::string bad_escape = with_json_token(run, "attack_name", "\"a\\qb\"");
  for (const std::string& bad :
       {swapped, extra, run.substr(0, 1) + run.substr(16), bad_escape}) {
    SCOPED_TRACE(bad.substr(0, 80));
    EXPECT_EQ(render({bad}), std::nullopt);
    // Also after a run whose body the bad line repeats or nearly repeats.
    EXPECT_EQ(render({lines[3], bad}), std::nullopt);
  }

  // In a file, the refusal names the line. The records do not scan
  // either: a key out of place stops every reader, so mtr_merge exits 2
  // with or without --csv.
  const std::string dir = temp_path("csv_view_refusal");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::string> edited = lines;
  edited[4] = swapped;
  const std::string path = dir + "/fig04.jsonl";
  write_file(path, join_lines(edited));
  std::ostringstream sink;
  try {
    render_csv(path, std::filesystem::file_size(path), sink);
    FAIL() << "a swapped key order rendered";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path + ":5: record has no CSV row"),
              std::string::npos)
        << e.what();
  }
  MergeOptions o;
  o.csv_out = dir + "/m.csv";
  o.jsonl_out = dir + "/m.jsonl";
  o.jsonl_in = {path};
  std::ostringstream merge_out, merge_err;
  const std::string refusal =
      path + ":5: run record has 'seed_index' at column " +
      std::to_string(run.find(seeds) - 1) + " where the writer puts 'seed'" +
      at_byte(line_offset(lines, 5));
  EXPECT_EQ(scan_jsonl(path).tail_error, refusal);
  EXPECT_EQ(run_merge(o, merge_out, merge_err), 2);
  EXPECT_NE(merge_err.str().find(refusal), std::string::npos) << merge_err.str();
  EXPECT_FALSE(std::filesystem::exists(o.csv_out));
  EXPECT_FALSE(std::filesystem::exists(o.jsonl_out));
  o.csv_out.clear();
  EXPECT_EQ(run_merge(o, merge_out, merge_err), 2);
  EXPECT_FALSE(std::filesystem::exists(o.jsonl_out));
  std::filesystem::remove_all(dir);
}

TEST(MergeTest, ARefusedMergeLeavesNoTemporaryFile) {
  // The golden with an escape no decoder reads in line 5's attack_name,
  // which neither the scan nor the aggregate check decodes: the merge
  // refuses it while rendering the CSV it writes beside the JSONL, and
  // neither output nor its temporary draft is left behind.
  const std::string dir = temp_path("dist_merge_refused");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir + "/out");
  std::vector<std::string> lines = lines_of(read_file(kGoldenJsonl));
  lines[4] = with_json_token(lines[4], "attack_name", "\"a\\qb\"");
  write_file(dir + "/fig04.jsonl", join_lines(lines));
  EXPECT_TRUE(scan_jsonl(dir + "/fig04.jsonl").clean);
  MergeOptions o;
  o.csv_out = dir + "/out/m.csv";
  o.jsonl_out = dir + "/out/m.jsonl";
  o.jsonl_in = {dir + "/fig04.jsonl"};
  std::ostringstream out, err;
  EXPECT_EQ(run_merge(o, out, err), 2);
  EXPECT_NE(err.str().find(":5: "), std::string::npos) << err.str();
  EXPECT_TRUE(std::filesystem::is_empty(dir + "/out"));
  std::filesystem::remove_all(dir);
}

TEST(MergeTest, ACsvInputIsCheckedAgainstItsRecordsRendering) {
  // A .csv input is no source of cells: it is accepted only beside its
  // same-stem .jsonl input, and only when it equals that file's CSV
  // rendering byte for byte.
  const std::string root = temp_path("dist_merge_csv_check");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const auto write_pair = [&](const std::string& stem,
                              const std::vector<std::uint64_t>& cells) {
    report::CsvSink csv(root + "/" + stem + ".csv");
    report::JsonlSink jsonl(root + "/" + stem + ".jsonl");
    for (const std::uint64_t c : cells) {
      csv.write_cell("grid", synth_cell(c, {7, 8}));
      jsonl.write_cell("grid", synth_cell(c, {7, 8}));
    }
  };
  write_pair("all", {0, 1, 2, 3});
  write_pair("s0", {0, 2});
  write_pair("s1", {1, 3});
  const std::string merged = root + "/m.csv";
  const auto merge = [&](const std::vector<std::string>& csv_in,
                         const std::vector<std::string>& jsonl_in) {
    MergeOptions o;
    o.csv_out = merged;
    for (const std::string& stem : csv_in) o.csv_in.push_back(root + "/" + stem + ".csv");
    for (const std::string& stem : jsonl_in)
      o.jsonl_in.push_back(root + "/" + stem + ".jsonl");
    std::filesystem::remove(merged);
    std::ostringstream out, err;
    const int rc = run_merge(o, out, err);
    return std::make_pair(rc, err.str());
  };

  // The records alone render the merged CSV; checked CSVs change nothing.
  EXPECT_EQ(merge({}, {"s1", "s0"}).first, 0);
  EXPECT_EQ(read_file(merged), read_file(root + "/all.csv"));
  EXPECT_EQ(merge({"s0", "s1"}, {"s1", "s0"}).first, 0);
  EXPECT_EQ(read_file(merged), read_file(root + "/all.csv"));

  // One byte off anywhere, a lost final newline, an extra row: exit 2
  // naming the CSV's line and the byte it starts at, nothing written.
  const std::string good = read_file(root + "/s1.csv");
  const std::vector<std::string> rows = lines_of(good);
  ASSERT_EQ(rows.size(), 5u);
  std::vector<std::pair<std::string, std::size_t>> damaged;  // bytes, line
  for (const std::size_t line : {1u, 3u, 5u}) {
    std::string bad = good;
    const std::size_t at = line_offset(rows, line) + rows[line - 1].size() / 2;
    bad[at] = bad[at] == 'x' ? 'y' : 'x';
    damaged.emplace_back(bad, line);
  }
  damaged.emplace_back(good.substr(0, good.size() - 1), 5);
  damaged.emplace_back(good + rows[4] + "\n", 6);
  for (const auto& [bytes, line] : damaged) {
    SCOPED_TRACE("line " + std::to_string(line));
    write_file(root + "/s1.csv", bytes);
    const auto [rc, err] = merge({"s1"}, {"s0", "s1"});
    EXPECT_EQ(rc, 2);
    const std::uint64_t begin =
        line <= rows.size() ? line_offset(rows, line) : good.size();
    EXPECT_NE(err.find(root + "/s1.csv:" + std::to_string(line) +
                       ": differs from the CSV rendering of " + root +
                       "/s1.jsonl" + at_byte(begin)),
              std::string::npos)
        << err;
    EXPECT_FALSE(std::filesystem::exists(merged));
  }

  // A .csv input without its records exits 2, whatever else comes.
  write_file(root + "/s1.csv", good);
  for (const std::vector<std::string>& jsonl :
       {std::vector<std::string>{"s0"}, std::vector<std::string>{}}) {
    const auto [rc, err] = merge({"s1"}, jsonl);
    EXPECT_EQ(rc, 2);
    EXPECT_NE(err.find(root + "/s1.csv comes without its records " + root +
                       "/s1.jsonl"),
              std::string::npos)
        << err;
    EXPECT_FALSE(std::filesystem::exists(merged));
  }
  std::filesystem::remove_all(root);
}

TEST(SweepDriverTest, DryRunPlanNamesOpenScenarioAxes) {
  report::SweepRegistry registry;
  registry.add({"abl", "jiffy ablation", [](const report::SweepContext& ctx) {
                  core::BatchGrid grid;
                  grid.base = test::quick_experiment(
                      workloads::WorkloadKind::kOurs, ctx.scale);
                  grid.jiffy_timers = {true, false};
                  ctx.run_grid("abl", std::move(grid));
                }});
  SweepOptions opts = grid_options("");
  opts.sweeps = {"abl"};
  opts.dry_run = true;
  std::ostringstream out, err;
  EXPECT_EQ(run_sweeps(registry, opts, out, err), 0);
  EXPECT_NE(out.str().find("abl: cells [0,2) — runs all 2 (axes: attack=1 "
                           "scheduler=1 hz=1 cpu=1 ram=1 ptrace=1 jiffy=2 "
                           "population=1 fraction=1 nice=1)"),
            std::string::npos)
      << out.str();
}

TEST(MergeArgsTest, ClassifiesInputsAndValidatesCombinations) {
  const char* argv[] = {"mtr_merge", "--csv",  "out.csv", "--jsonl",
                        "out.jsonl", "a.csv",  "b.jsonl", "c.csv"};
  const MergeOptions o = parse_merge_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(o.csv_out, "out.csv");
  EXPECT_EQ(o.jsonl_out, "out.jsonl");
  EXPECT_EQ(o.csv_in, (std::vector<std::string>{"a.csv", "c.csv"}));
  EXPECT_EQ(o.jsonl_in, (std::vector<std::string>{"b.jsonl"}));

  const char* bad_ext[] = {"mtr_merge", "--csv", "out.csv", "a.parquet"};
  EXPECT_THROW(parse_merge_args(4, bad_ext), std::runtime_error);

  std::ostringstream out, err;
  MergeOptions no_output;
  no_output.csv_in = {"a.csv"};
  EXPECT_EQ(run_merge(no_output, out, err), 2);

  MergeOptions no_inputs;
  no_inputs.csv_out = "out.csv";
  EXPECT_EQ(run_merge(no_inputs, out, err), 2);

  MergeOptions orphan_inputs;
  orphan_inputs.jsonl_out = "out.jsonl";
  orphan_inputs.jsonl_in = {"a.jsonl"};
  orphan_inputs.csv_in = {"a.csv"};  // .csv inputs but no --csv
  EXPECT_EQ(run_merge(orphan_inputs, out, err), 2);

  MergeOptions csv_only;  // a CSV is rendered from records, never merged
  csv_only.csv_out = "out.csv";
  csv_only.csv_in = {"a.csv", "b.csv"};
  csv_only.jsonl_in = {"a.jsonl"};
  std::ostringstream csv_err;
  EXPECT_EQ(run_merge(csv_only, out, csv_err), 2);
  EXPECT_NE(csv_err.str().find("b.csv comes without its records b.jsonl"),
            std::string::npos)
      << csv_err.str();

  MergeOptions help;
  help.help = true;
  EXPECT_EQ(run_merge(help, out, err), 0);
  EXPECT_NE(out.str().find("usage: mtr_merge"), std::string::npos);
}

// --- observability flags and metrics folding --------------------------------------

TEST(SweepArgsTest, ParsesTraceDirAndMetricsFlags) {
  const char* argv[] = {"mtr_sweep",   "fig04",
                        "--trace-dir", "traces/fig04",
                        "--metrics",   "out/metrics.json"};
  const SweepOptions o = parse_sweep_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(o.trace_dir, "traces/fig04");
  EXPECT_EQ(o.metrics_path, "out/metrics.json");

  // Both default off: plain invocations never pay for observability.
  const char* plain[] = {"mtr_sweep", "fig04"};
  const SweepOptions p = parse_sweep_args(2, plain);
  EXPECT_TRUE(p.trace_dir.empty());
  EXPECT_TRUE(p.metrics_path.empty());

  const char* missing[] = {"mtr_sweep", "--trace-dir"};
  EXPECT_THROW(parse_sweep_args(2, missing), std::runtime_error);
}

TEST(MergeArgsTest, ClassifiesMetricsJsonInputsAndValidatesPairing) {
  const char* argv[] = {"mtr_merge", "--metrics", "merged.json",
                        "s0/metrics.json", "s1/metrics.json"};
  const MergeOptions o = parse_merge_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(o.metrics_out, "merged.json");
  EXPECT_EQ(o.metrics_in,
            (std::vector<std::string>{"s0/metrics.json", "s1/metrics.json"}));
  // .jsonl must keep classifying as shard result files, not metrics.
  const char* mixed[] = {"mtr_merge", "--jsonl", "o.jsonl", "a.jsonl"};
  const MergeOptions m = parse_merge_args(4, mixed);
  EXPECT_EQ(m.jsonl_in, (std::vector<std::string>{"a.jsonl"}));
  EXPECT_TRUE(m.metrics_in.empty());

  std::ostringstream out, err;
  MergeOptions orphan_out;  // --metrics without .json shard inputs
  orphan_out.metrics_out = "merged.json";
  EXPECT_EQ(run_merge(orphan_out, out, err), 2);

  MergeOptions orphan_in;  // .json inputs without --metrics
  orphan_in.csv_out = "out.csv";
  orphan_in.csv_in = {"a.csv"};
  orphan_in.metrics_in = {"s0/metrics.json"};
  EXPECT_EQ(run_merge(orphan_in, out, err), 2);
}

namespace {

trace::SweepMetrics sample_metrics(const std::string& sweep, std::uint64_t cells) {
  trace::SweepMetrics s;
  s.sweep = sweep;
  s.cells = cells;
  s.runs = cells * 3;
  s.cell_wall_seconds = 0.5 * static_cast<double>(cells);
  s.max_cell_seconds = 0.25;
  s.kernel.events_popped = 100 * cells;
  s.kernel.timer_ticks = 40 * cells;
  s.kernel.ticks_coalesced = 10 * cells;
  s.kernel.charge_flushes = 7 * cells;
  s.kernel.max_event_queue_depth = 5 + cells;
  s.phases.add("grid", 1, 0.125);
  s.pool.threads = 2;
  s.pool.wall_seconds = 0.5;
  s.pool.busy_seconds = {0.25, 0.125};
  return s;
}

std::string write_metrics_file(const std::string& name,
                               const std::vector<trace::SweepMetrics>& sweeps,
                               std::uint64_t shards = 1) {
  std::ostringstream os;
  trace::write_metrics_json(os, sweeps, shards);
  const std::string path = temp_path(name);
  write_file(path, os.str());
  return path;
}

}  // namespace

TEST(MetricsFoldTest, FoldSumsCountersAcrossShardsBySweepName) {
  const auto p0 = write_metrics_file(
      "fold-shard0.json",
      {sample_metrics("fig04", 2), sample_metrics("fig05", 1)});
  const auto p1 = write_metrics_file("fold-shard1.json",
                                     {sample_metrics("fig04", 3)});
  const MetricsFile folded =
      fold_metrics({read_metrics_json(p0), read_metrics_json(p1)});
  EXPECT_EQ(folded.shards, 2u);
  ASSERT_EQ(folded.sweeps.size(), 2u);  // first-seen sweep order
  EXPECT_EQ(folded.sweeps[0].sweep, "fig04");
  EXPECT_EQ(folded.sweeps[0].cells, 5u);
  EXPECT_EQ(folded.sweeps[0].runs, 15u);
  EXPECT_EQ(folded.sweeps[0].kernel.timer_ticks, 200u);
  EXPECT_EQ(folded.sweeps[0].kernel.max_event_queue_depth, 8u);  // gauge max
  EXPECT_EQ(folded.sweeps[0].pool.threads, 2u);
  EXPECT_DOUBLE_EQ(folded.sweeps[0].pool.wall_seconds, 1.0);
  EXPECT_EQ(folded.sweeps[1].sweep, "fig05");
  EXPECT_EQ(folded.sweeps[1].cells, 1u);
}

TEST(MetricsFoldTest, RejectsMissingMalformedAndWrongSchemaFiles) {
  EXPECT_THROW(read_metrics_json(temp_path("does-not-exist.json")),
               std::runtime_error);

  const auto garbage = temp_path("garbage-metrics.json");
  write_file(garbage, "{\"schema\": 1, \"record\": \"metrics\"");  // truncated
  EXPECT_THROW(read_metrics_json(garbage), std::runtime_error);

  const auto wrong_tag = temp_path("wrong-tag-metrics.json");
  write_file(wrong_tag,
             "{\"schema\": 1, \"record\": \"cells\", \"shards\": 1, "
             "\"sweeps\": []}");
  EXPECT_THROW(read_metrics_json(wrong_tag), std::runtime_error);
  // Other schema versions are pinned by SchemaRejectionTest.
}

TEST(MetricsFoldTest, RunMergeWritesFoldedMetricsOutput) {
  const auto p0 =
      write_metrics_file("merge-shard0.json", {sample_metrics("fig04", 2)});
  const auto p1 =
      write_metrics_file("merge-shard1.json", {sample_metrics("fig04", 1)});
  MergeOptions options;
  options.metrics_out = temp_path("merge-folded.json");
  options.metrics_in = {p0, p1};
  std::ostringstream out, err;
  ASSERT_EQ(run_merge(options, out, err), 0) << err.str();
  const MetricsFile folded = read_metrics_json(options.metrics_out);
  EXPECT_EQ(folded.shards, 2u);
  ASSERT_EQ(folded.sweeps.size(), 1u);
  EXPECT_EQ(folded.sweeps[0].cells, 3u);
  EXPECT_NE(out.str().find("1 sweep metric(s)"), std::string::npos) << out.str();
}

// --- schema v2 telemetry round trips ----------------------------------------------

namespace {

/// sample_metrics plus telemetry data, exercising the v2 sections.
trace::SweepMetrics telemetry_metrics(const std::string& sweep) {
  trace::SweepMetrics s = sample_metrics(sweep, 2);
  s.telemetry.run_queue.sample(0, 1);
  s.telemetry.run_queue.sample(trace::TimeSeries::kBaseWidth, 4);
  s.telemetry.free_frames.sample(0, 1000);
  s.telemetry.victim_gap.sample(0, -12345);
  s.telemetry.billing_error.add(0.0625);
  s.telemetry.billing_error.add(-0.03125);
  s.telemetry.billing_error.add(0.0);
  s.telemetry.charge_batch.add(16.0, 3);
  s.telemetry.cell_seconds.add(0.5);
  return s;
}

}  // namespace

TEST(MetricsFoldTest, TelemetrySectionsRoundTripByteStably) {
  const auto path = write_metrics_file("telemetry-roundtrip.json",
                                       {telemetry_metrics("fig04")});
  const MetricsFile f = read_metrics_json(path);
  EXPECT_EQ(f.schema, trace::kMetricsSchemaVersion);
  EXPECT_EQ(f.shards, 1u);
  ASSERT_EQ(f.sweeps.size(), 1u);
  const trace::SweepMetrics& s = f.sweeps[0];
  EXPECT_EQ(s.sweep, "fig04");
  EXPECT_EQ(s.runs, 6u);
  EXPECT_EQ(s.kernel.events_popped, 200u);
  EXPECT_EQ(s.kernel.max_event_queue_depth, 7u);
  ASSERT_EQ(s.phases.entries().size(), 1u);
  EXPECT_EQ(s.phases.entries()[0].name, "grid");
  ASSERT_EQ(s.pool.busy_seconds.size(), 2u);
  EXPECT_DOUBLE_EQ(s.pool.busy_seconds[1], 0.125);
  const trace::Telemetry& t = s.telemetry;
  EXPECT_EQ(t.run_queue.samples(), 2u);
  EXPECT_EQ(t.run_queue.bucket(1).sum, 4);
  EXPECT_EQ(t.victim_gap.bucket(0).min, -12345);
  EXPECT_EQ(t.billing_error.count(), 3u);
  EXPECT_EQ(t.billing_error.zero_count(), 1u);
  EXPECT_DOUBLE_EQ(t.billing_error.min(), -0.03125);
  EXPECT_EQ(t.charge_batch.count(), 3u);
  EXPECT_EQ(t.cell_seconds.count(), 1u);

  // The parsed structures equal the originals exactly...
  const trace::SweepMetrics orig_m = telemetry_metrics("fig04");
  const trace::Telemetry& orig = orig_m.telemetry;
  EXPECT_EQ(t.run_queue, orig.run_queue);
  EXPECT_EQ(t.billing_error, orig.billing_error);
  EXPECT_EQ(t.charge_batch, orig.charge_batch);
  // ...so re-emitting reproduces the file byte-for-byte.
  std::ostringstream reemit;
  trace::write_metrics_json(reemit, f.sweeps, f.shards);
  EXPECT_EQ(reemit.str(), read_file(path));
}

TEST(MetricsFoldTest, SubnormalSketchBoundsRoundTripByteStably) {
  trace::SweepMetrics m = telemetry_metrics("fig04");
  m.telemetry.billing_error = QuantileSketch{};
  m.telemetry.billing_error.add(4.9406564584124654e-324);
  m.telemetry.billing_error.add(2.2250738585072009e-308);
  const auto path = write_metrics_file("subnormal-roundtrip.json", {m});
  ASSERT_NE(read_file(path).find("\"min\": 4.9406564584124654e-324"),
            std::string::npos);
  const MetricsFile f = read_metrics_json(path);
  std::ostringstream reemit;
  trace::write_metrics_json(reemit, f.sweeps, f.shards);
  EXPECT_EQ(reemit.str(), read_file(path));
}

TEST(JsonNumberTest, ConversionsRefuseWhatTheirTypeCannotHold) {
  const auto field = [](const char* token) { return json::parse_document(token); };
  EXPECT_EQ(json::as_u64(field("18446744073709551615"), "x"), UINT64_MAX);
  EXPECT_EQ(json::as_i64(field("-9223372036854775808"), "x"), INT64_MIN);
  for (const char* bad : {"-1", "1e5", "1.0", "18446744073709551616"})
    EXPECT_THROW(json::as_u64(field(bad), "x"), std::runtime_error) << bad;
  for (const char* bad : {"9223372036854775808", "1.5"})
    EXPECT_THROW(json::as_i64(field(bad), "x"), std::runtime_error) << bad;
  EXPECT_THROW(json::as_f64(field("1e400"), "x"), std::runtime_error);
}

// --- one schema: every reader refuses every other version -------------------------

namespace {

/// Rewrites the schema stamp of a real current-version record file to
/// `version`, on every record or on the 1-based `only_line` alone. Only the
/// stamp changes: the columns stay the current layout.
std::string restamp(const std::string& text, std::uint64_t version,
                    std::size_t only_line = 0) {
  const std::string current = std::to_string(report::kSchemaVersion);
  const std::string jsonl_tag = "\"schema\":" + current + ",";
  std::string out;
  const auto lines = lines_of(text);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::string line = lines[i];
    const bool csv_header = line.rfind("schema,", 0) == 0;
    if (!csv_header && (only_line == 0 || only_line == i + 1)) {
      const std::size_t at = line.find(jsonl_tag);
      // JSONL: the "schema" key; CSV: the leading schema cell.
      const std::size_t stamp = at != std::string::npos ? at + 9 : 0;
      EXPECT_EQ(line.compare(stamp, current.size() + 1, current + ","), 0)
          << line;
      line.replace(stamp, current.size(), std::to_string(version));
    }
    out += line;
    out += '\n';
  }
  return out;
}

/// Asserts the one-line refusal: path:line, the byte, the version found,
/// the version this build reads, and who produced the file.
void expect_refusal(const std::string& what, const std::string& path,
                    std::uint64_t line, std::uint64_t byte, std::uint64_t found,
                    std::uint64_t reads) {
  EXPECT_NE(what.find(path + ":" + std::to_string(line) + ":"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("(byte " + std::to_string(byte) + ")"), std::string::npos)
      << what;
  EXPECT_NE(what.find("schema version " + std::to_string(found) + ","),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("this build reads only v" + std::to_string(reads)),
            std::string::npos)
      << what;
  EXPECT_NE(what.find(found < reads ? "produced by an older metertrust"
                                    : "produced by a newer metertrust"),
            std::string::npos)
      << what;
  EXPECT_EQ(what.find('\n'), what.back() == '\n' ? what.size() - 1
                                                  : std::string::npos)
      << "refusal spans several lines: " << what;
}

}  // namespace

TEST(SchemaRejectionTest, RecordsOfAnyOtherVersionAreRefusedEverywhere) {
  const std::string root = temp_path("dist_schema_reject");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string jsonl = root + "/grid.jsonl";
  const std::string csv = root + "/grid.csv";
  write_shard_jsonl(jsonl, {0, 1});
  {
    report::CsvSink sink(csv);
    sink.write_cell("grid", synth_cell(0, {7, 8}));
    sink.write_cell("grid", synth_cell(1, {7, 8}));
  }
  const std::string v4_jsonl = read_file(jsonl);
  const std::string v4_csv = read_file(csv);
  const std::uint64_t csv_header = lines_of(v4_csv)[0].size() + 1;

  for (const bool is_csv : {false, true}) {
    const std::string& path = is_csv ? csv : jsonl;
    const std::string& original = is_csv ? v4_csv : v4_jsonl;
    const auto scan = [&] { return is_csv ? scan_csv(path) : scan_jsonl(path); };
    write_file(jsonl, v4_jsonl);  // a CSV input comes with its records
    MergeOptions merge;
    (is_csv ? merge.csv_out : merge.jsonl_out) = root + "/merged";
    merge.jsonl_in = {jsonl};
    if (is_csv) merge.csv_in = {csv};

    // Every record restamped: refused at the first record.
    for (const std::uint64_t version : {1u, 3u, 5u}) {
      SCOPED_TRACE(path + " restamped v" + std::to_string(version));
      write_file(path, restamp(original, version));
      const std::uint64_t line = is_csv ? 2 : 1;
      const std::uint64_t byte = is_csv ? csv_header : 0;
      try {
        scan();
        FAIL() << "scanner accepted schema " << version;
      } catch (const SchemaError& e) {
        expect_refusal(e.what(), path, line, byte, version, 4);
      }
      std::ostringstream out, err;
      EXPECT_EQ(run_merge(merge, out, err),
                static_cast<int>(MergeFault::kCorrupt));
      if (is_csv) {
        // No decision reads a CSV: beside its intact records it is
        // refused as not their rendering, at its first restamped row.
        EXPECT_NE(err.str().find(path + ":2: differs from the CSV rendering"),
                  std::string::npos)
            << err.str();
        continue;
      }
      expect_refusal(err.str(), path, line, byte, version, 4);
      try {
        ResumeIndex::scan(path, {7, 8});
        FAIL() << "resume accepted schema " << version;
      } catch (const SchemaError& e) {
        expect_refusal(e.what(), path, line, byte, version, 4);
        EXPECT_NE(std::string(e.what()).find("start the sweep fresh"),
                  std::string::npos)
            << e.what();
      }
    }

    // One v3 record mid-file (the first run of cell 1, line 4 in both
    // layouts) is refused as well: a file never mixes versions.
    SCOPED_TRACE(path + " with one v3 line");
    write_file(path, restamp(original, 3, 4));
    const auto lines = lines_of(original);
    const std::uint64_t byte = lines[0].size() + lines[1].size() +
                               lines[2].size() + 3;
    try {
      scan();
      FAIL() << "scanner accepted a mixed file";
    } catch (const SchemaError& e) {
      expect_refusal(e.what(), path, 4, byte, 3, 4);
    }
    std::ostringstream out, err;
    EXPECT_EQ(run_merge(merge, out, err), static_cast<int>(MergeFault::kCorrupt));

    // The untouched file still scans clean: only the stamp was at fault.
    write_file(path, original);
    EXPECT_EQ(scan().blocks.size(), 2u);
  }
  std::filesystem::remove_all(root);
}

TEST(SchemaRejectionTest, MetricsOfAnyOtherVersionAreRefused) {
  const std::string text = read_file(write_metrics_file(
      "schema-reject-src.json", {telemetry_metrics("fig04")}));
  const std::string stamp = "{\"schema\": 2,";
  ASSERT_EQ(text.rfind(stamp, 0), 0u) << text.substr(0, 40);
  const std::string path = temp_path("schema-reject-metrics.json");
  for (const std::uint64_t version : {1u, 3u}) {
    SCOPED_TRACE("metrics schema " + std::to_string(version));
    write_file(path, "{\"schema\": " + std::to_string(version) + "," +
                         text.substr(stamp.size()));
    try {
      read_metrics_json(path);
      FAIL() << "metrics schema " << version << " accepted";
    } catch (const SchemaError& e) {
      expect_refusal(e.what(), path, 1, 1, version, 2);
    }
    MergeOptions merge;
    merge.metrics_out = temp_path("schema-reject-folded.json");
    merge.metrics_in = {path};
    std::ostringstream out, err;
    EXPECT_EQ(run_merge(merge, out, err), static_cast<int>(MergeFault::kCorrupt));
    expect_refusal(err.str(), path, 1, 1, version, 2);
  }
}

// --- one owner per schema: the metrics reader and the trace check ---------------

namespace {

/// One real traced and metered sweep (counting_registry at scale 0.02), run
/// once and shared by the reader tests below. Its wall-clock fields are
/// pinned, so the metrics bytes are the same on every run.
struct RealArtifacts {
  MetricsFile written;       // as the sweep wrote it
  std::string metrics_text;  // the same, wall-clock fields pinned
  MetricsFile metrics;       // metrics_text, read back
  std::string trace_text;    // grid-cell0.json
};

const RealArtifacts& real_artifacts() {
  static const RealArtifacts real = [] {
    std::atomic<int> runs{0};
    const report::SweepRegistry registry = counting_registry(&runs);
    const std::string root = temp_path("dist_real_artifacts");
    std::filesystem::remove_all(root);
    SweepOptions opts = grid_options(root + "/out");
    opts.trace_dir = root + "/traces";
    opts.metrics_path = root + "/metrics.json";
    std::ostringstream out, err;
    if (run_sweeps(registry, opts, out, err) != 0)
      throw std::runtime_error(err.str());
    const MetricsFile written = read_metrics_json(opts.metrics_path);
    trace::SweepMetrics s = written.sweeps[0];
    s.cell_wall_seconds = 0.5;
    s.max_cell_seconds = 0.25;
    s.phases = {};
    s.phases.add("sweep", 1, 0.75);
    s.pool.wall_seconds = 0.5;
    s.pool.busy_seconds = {0.25, 0.125};
    s.telemetry.cell_seconds = {};
    s.telemetry.cell_seconds.add(0.125, s.cells);
    const std::string metrics = write_metrics_file("real-metrics.json", {s});
    RealArtifacts a{written, read_file(metrics), read_metrics_json(metrics),
                    read_file(root + "/traces/grid-cell0.json")};
    std::filesystem::remove_all(root);
    std::filesystem::remove(metrics);
    return a;
  }();
  return real;
}

/// `text` with the first `from` replaced by `to`; fails the test when the
/// fixture no longer holds `from`.
std::string replace_first(std::string text, const std::string& from,
                          const std::string& to) {
  const std::size_t at = text.find(from);
  if (at == std::string::npos) {
    ADD_FAILURE() << "fixture lacks '" << from << "'";
    return text;
  }
  return text.replace(at, from.size(), to);
}

/// Asserts that `read` throws a std::runtime_error that starts with `prefix`
/// and mentions `refusal`.
template <typename Read>
void expect_refused(Read&& read, const std::string& prefix,
                    const std::string& refusal) {
  try {
    read();
    ADD_FAILURE() << "accepted; expected a refusal mentioning " << refusal;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_EQ(what.rfind(prefix, 0), 0u) << what;
    EXPECT_NE(what.find(refusal), std::string::npos) << what;
  }
}

}  // namespace

TEST(MetricsReaderTest, RealSweepKeepsTheSimulatorsInvariants) {
  // Properties of the simulator and the driver, not of the format, so a
  // real sweep asserts them instead of the reader.
  const MetricsFile& f = real_artifacts().written;
  EXPECT_EQ(f.shards, 1u);
  ASSERT_EQ(f.sweeps.size(), 1u);
  const trace::SweepMetrics& s = f.sweeps[0];
  EXPECT_EQ(s.cells, 4u);
  EXPECT_GT(s.kernel.timer_ticks, 0u);  // every run lands timer ticks
  EXPECT_GE(s.max_cell_seconds, 0.0);
  EXPECT_FALSE(s.phases.entries().empty());
  EXPECT_GE(s.pool.threads, 1u);
  EXPECT_GE(s.pool.wall_seconds, 0.0);
  for (const double busy : s.pool.busy_seconds) EXPECT_GE(busy, 0.0);
}

TEST(MetricsReaderTest, EveryStructuralViolationIsRefusedByPathAndSweep) {
  const RealArtifacts& real = real_artifacts();
  const trace::SweepMetrics& base = real.metrics.sweeps[0];
  const std::string path = temp_path("damaged-metrics.json");
  const auto expect = [&](const std::string& text, const std::string& refusal) {
    SCOPED_TRACE(refusal);
    write_file(path, text);
    expect_refused([&] { read_metrics_json(path); }, path + ": sweep 'grid': ",
                   refusal);
  };

  // Section keys are the writer's name tables, exactly and in order.
  const std::string depth =
      "\"max_event_queue_depth\": " +
      std::to_string(base.kernel.max_event_queue_depth);
  const std::string& text = real.metrics_text;
  expect(replace_first(text, depth, "\"bogus\": 1, " + depth),
         "kernel has 'bogus' where 'max_event_queue_depth' belongs");
  expect(replace_first(text, ", " + depth, ""),
         "kernel is missing 'max_event_queue_depth'");
  expect(replace_first(text, depth, depth + ", \"extra\": 0"),
         "kernel has an extra key 'extra'");
  expect(replace_first(text, "\"victim_gap\": {", "\"victim_gap2\": {"),
         "series has 'victim_gap2' where 'victim_gap' belongs");
  expect(replace_first(text, "\"cell_seconds\": {", "\"wall_seconds\": {"),
         "sketches has 'wall_seconds' where 'cell_seconds' belongs");
  // Series widths and sketch rows.
  const std::string width =
      "\"width\": " + std::to_string(base.telemetry.run_queue.width());
  expect(replace_first(text, width, width + "1"), "is not kBaseWidth * 2^k");
  // cell_seconds (pinned to 4 cells of 0.125 s) closes the file.
  expect(replace_first(text, ", 4]]}}}", ", 0]]}}}"),
         "sketch 'cell_seconds' pos bucket holds no values");
  const std::string count =
      "\"billing_error\": {\"count\": " +
      std::to_string(base.telemetry.billing_error.count());
  expect(replace_first(text, count, count + "9"),
         "sketch 'billing_error' count does not match its buckets");

  // Relations the writer keeps by construction, broken on the parsed sweep
  // and written back out.
  const std::vector<
      std::pair<std::function<void(trace::SweepMetrics&)>, std::string>>
      edits = {
          {[](auto& s) { s.runs = s.cells - 1; }, "runs 3 < cells 4"},
          {[](auto& s) { s.max_cell_seconds = s.cell_wall_seconds + 1.0; },
           "max_cell_seconds exceeds cell_wall_seconds"},
          {[](auto& s) { s.kernel.ticks_coalesced = s.kernel.timer_ticks + 1; },
           "ticks_coalesced exceeds timer_ticks"},
          {[](auto& s) { s.pool.threads = 0; }, "busy slots but 0 threads"},
          {[](auto& s) {
             s.telemetry.run_queue.load(trace::TimeSeries::kBaseWidth,
                                        {{1, 5, 4, 5}});
           },
           "series 'run_queue' bucket 0 breaks min <= max"},
          {[](auto& s) {
             s.telemetry.free_frames.load(trace::TimeSeries::kBaseWidth,
                                          {{2, 1, 3, 4}, {2, 1, 3, 7}});
           },
           "series 'free_frames' bucket 1 breaks"},
          {[](auto& s) { s.telemetry.billing_error.load_bounds(1.0, -1.0); },
           "sketch 'billing_error' min exceeds max"},
      };
  for (const auto& [edit, refusal] : edits) {
    trace::SweepMetrics s = base;
    edit(s);
    expect(read_file(write_metrics_file("edited-metrics.json", {s})), refusal);
  }
  std::filesystem::remove(path);
}

TEST(MetricsReaderTest, ARepeatedSweepIsRefusedByName) {
  // --compare used to look up the first copy and report "counters
  // identical"; a fold would have summed the two.
  trace::SweepMetrics copy = real_artifacts().metrics.sweeps[0];
  copy.kernel.events_popped += 12345;
  const std::string path = write_metrics_file(
      "repeated-sweep-metrics.json", {real_artifacts().metrics.sweeps[0], copy});
  expect_refused([&] { read_metrics_json(path); }, path + ": ",
                 "sweep 'grid' appears twice");
  const char* argv[] = {"mtr_inspect", "--compare", path.c_str(), path.c_str()};
  EXPECT_EQ(inspect_main(4, argv), 2);
  std::filesystem::remove(path);
}

TEST(MetricsReaderTest, AnOverflowingSeriesFoldExitsTwoNamingTheFile) {
  trace::SweepMetrics s = real_artifacts().metrics.sweeps[0];
  constexpr std::int64_t kBig = (std::int64_t{1} << 62) + 1;
  s.telemetry.run_queue.load(trace::TimeSeries::kBaseWidth,
                             {{1, kBig, kBig, kBig}});
  const std::string path = write_metrics_file("overflow-metrics.json", {s});
  MergeOptions merge;
  merge.metrics_out = temp_path("overflow-folded.json");
  std::filesystem::remove(merge.metrics_out);
  merge.metrics_in = {path, path};
  std::ostringstream out, err;
  EXPECT_EQ(run_merge(merge, out, err), static_cast<int>(MergeFault::kCorrupt));
  EXPECT_NE(err.str().find(path + ": sweep 'grid': a series bucket overflows"),
            std::string::npos)
      << err.str();
  EXPECT_FALSE(std::filesystem::exists(merge.metrics_out));
  std::filesystem::remove(path);
}

/// One trace rule, broken by replacing the first `from` of a real trace.
struct TraceDamage {
  const char* rule;
  const char* from;
  const char* to;
  const char* refusal;
};

void PrintTo(const TraceDamage& d, std::ostream* os) { *os << d.rule; }

class TraceRefusalTest : public testing::TestWithParam<TraceDamage> {};

TEST_P(TraceRefusalTest, ExitsTwoAndNamesThePath) {
  const TraceDamage& d = GetParam();
  const std::string path = temp_path(std::string("damaged-trace-") + d.rule);
  write_file(path, replace_first(real_artifacts().trace_text, d.from, d.to));
  InspectOptions o;
  o.trace_path = path;
  std::ostringstream out;
  expect_refused([&] { run_inspect(o, out); }, path + ": ", d.refusal);
  const char* argv[] = {"mtr_inspect", "--trace", path.c_str()};
  EXPECT_EQ(inspect_main(3, argv), 2);
  std::filesystem::remove(path);
}

INSTANTIATE_TEST_SUITE_P(
    EveryRule, TraceRefusalTest,
    testing::ValuesIn(std::vector<TraceDamage>{
        {"schema_tag", "\"mtr-trace-1\"", "\"mtr-trace-0\"",
         "schema tag \"mtr-trace-0\" is not \"mtr-trace-1\""},
        {"dropped_exceeds_recorded", "\"dropped\": ", "\"dropped\": 99999999999",
         "exceeds recorded"},
        {"unknown_ph", "\"ph\": \"X\"", "\"ph\": \"B\"", "has unknown ph 'B'"},
        {"unknown_metadata_kind", "\"thread_name\"", "\"thread_sort_index\"",
         "unknown metadata kind 'thread_sort_index'"},
        {"unnamed_tid", "\"tid\": 0, \"ts\"", "\"tid\": 424242, \"ts\"",
         "tid that no thread_name names"},
        {"mixed_cat", "\"cat\": \"baseline\", ", "", "lack the cat the others carry"},
        {"conflicting_cat", "\"cat\": \"baseline\"", "\"cat\": \"a1\"",
         "2 different cat tags"},
        {"unknown_counter_track", "\"victim cpu-seconds\"", "\"victim cpu-hours\"",
         "unknown counter track 'victim cpu-hours'"},
        {"event_budget", "\"recorded\": ", "\"recorded\": 1", "spans + instants = "},
        {"missing_field", "\"cpu_hz\"", "\"cpu_Hz\"", "field 'cpu_hz' is missing"}}),
    [](const testing::TestParamInfo<TraceDamage>& info) {
      return std::string(info.param.rule);
    });

/// mutate(), or one digit rewritten, so that numbers stay numbers and the
/// checks behind the JSON grammar are reached too.
std::string damage(const std::string& bytes, SplitMix64& rng) {
  if (rng.next() % 2 == 0) return mutate(bytes, rng);
  std::string out = bytes;
  std::size_t at = rng.next() % out.size();
  while (out[at] < '0' || out[at] > '9') at = (at + 1) % out.size();
  out[at] = static_cast<char>('0' + rng.next() % 10);
  return out;
}

TEST(ReaderMutationTest, DamagedArtifactsAreRefusedByPathOrReadAsAFixedPoint) {
  constexpr int kMutations = 100;
  const RealArtifacts& real = real_artifacts();
  const std::string metrics = temp_path("fuzz-metrics.json");
  const std::string rewritten = temp_path("fuzz-metrics-rewritten.json");
  const std::string trace = temp_path("fuzz-trace.json");
  // Only std::runtime_error-family throws, each starting with the path.
  const auto refused = [](const std::string& path, const auto& read) {
    try {
      read();
      return false;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind(path + ": ", 0), 0u) << e.what();
    } catch (...) {
      ADD_FAILURE() << "a reader threw something other than std::runtime_error";
    }
    return true;
  };
  SplitMix64 rng(0x5EED1000);
  for (int i = 0; i < kMutations; ++i) {
    SCOPED_TRACE("mutation " + std::to_string(i));
    write_file(metrics, damage(real.metrics_text, rng));
    MetricsFile f;
    if (!refused(metrics, [&] { f = read_metrics_json(metrics); })) {
      // A file that reads clean is a read -> write -> read fixed point.
      std::ostringstream once, twice;
      trace::write_metrics_json(once, f.sweeps, f.shards);
      write_file(rewritten, once.str());
      const MetricsFile g = read_metrics_json(rewritten);
      trace::write_metrics_json(twice, g.sweeps, g.shards);
      EXPECT_EQ(twice.str(), once.str());
    }
    write_file(trace, damage(real.trace_text, rng));
    InspectOptions o;
    o.trace_path = trace;
    std::ostringstream out;
    refused(trace, [&] { run_inspect(o, out); });
  }
  for (const std::string& p : {metrics, rewritten, trace})
    std::filesystem::remove(p);
}

TEST(JsonQuoteTest, EveryEscapeRoundTripsThroughBothReaders) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"plain", "\"plain\""},
      {"say \"hi\"", "\"say \\\"hi\\\"\""},
      {"back\\slash", "\"back\\\\slash\""},
      {"a\nb\rc\td", "\"a\\nb\\rc\\td\""},
      {std::string("nul\0bel\x07us\x1f", 11), "\"nul\\u0000bel\\u0007us\\u001f\""},
      {"utf-8 \xc3\xa9, del \x7f", "\"utf-8 \xc3\xa9, del \x7f\""},
  };
  for (const auto& [raw, quoted] : cases) {
    SCOPED_TRACE(quoted);
    EXPECT_EQ(json_quote(raw), quoted);
    EXPECT_EQ(json::parse_document(quoted).text, raw);
    std::string text;
    EXPECT_EQ(decode_json_string(quoted.substr(1, quoted.size() - 2), text),
              nullptr);
    EXPECT_EQ(text, raw);
  }
}

// --- status heartbeat -------------------------------------------------------------

TEST(StatusFileTest, RendersAndPublishesAtomically) {
  StatusSnapshot s;
  s.sweep = "grid";
  s.cells_done = 3;
  s.cells_total = 4;
  s.elapsed_seconds = 1.5;
  s.eta_seconds = 0.5;
  s.worker_busy_fraction = {0.75, 0.5};
  const std::string rendered = render_status_json(s);
  const json::Value v = json::parse_document(rendered);
  EXPECT_EQ(json::get_string(v, "record"), "status");
  EXPECT_EQ(json::get_u64(v, "cells_done"), 3u);
  EXPECT_EQ(json::get_u64(v, "cells_total"), 4u);
  EXPECT_DOUBLE_EQ(json::get_f64(v, "eta_seconds"), 0.5);
  EXPECT_EQ(json::get_array(v, "workers").items.size(), 2u);

  s.eta_seconds.reset();
  EXPECT_NE(render_status_json(s).find("\"eta_seconds\": null"),
            std::string::npos);

  const std::string path = temp_path("status-heartbeat.json");
  write_status_file(path, s);
  write_status_file(path, s);  // republishing over an existing file works
  EXPECT_EQ(read_file(path), render_status_json(s));
  // The temp stage never survives a successful publish.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(SweepDriverTest, HeartbeatRefreshesAfterEveryRunWhileEmissionIsHeldBack) {
  // Cell 0's run holds until cell 4's run starts, so cells 1-3 finish while
  // emission waits behind cell 0. Each of those runs still rewrites the
  // heartbeat, so every probe after the first finds a newer one that counts
  // no emitted cell yet.
  const std::string root = temp_path("dist_heartbeat_per_run");
  std::filesystem::remove_all(root);
  std::mutex mutex;
  std::condition_variable cv;
  bool released = false;
  std::vector<std::optional<StatusSnapshot>> probes;
  SweepOptions opts = grid_options(root + "/out");
  opts.sweeps = {"held"};
  opts.seeds = {7};
  opts.status_file = root + "/status.json";
  const auto probe = [&] {
    probes.push_back(std::filesystem::exists(opts.status_file)
                         ? std::optional(read_status_file(opts.status_file))
                         : std::nullopt);
  };
  const auto attack = [](std::function<void()> hook) -> core::AttackFactory {
    return [hook = std::move(hook)]() -> std::unique_ptr<attacks::Attack> {
      hook();
      return nullptr;
    };
  };

  report::SweepRegistry registry;
  registry.add({"held", "emission held behind cell 0",
                [&](const report::SweepContext& ctx) {
                  core::BatchGrid grid;
                  grid.base = test::quick_experiment(
                      workloads::WorkloadKind::kOurs, ctx.scale);
                  grid.attacks.push_back({"slow", attack([&] {
                    std::unique_lock<std::mutex> lock(mutex);
                    if (!cv.wait_for(lock, std::chrono::seconds(30),
                                     [&] { return released; }))
                      throw std::runtime_error("never released");
                  })});
                  for (const char* label : {"probe1", "probe2", "probe3"})
                    grid.attacks.push_back({label, attack(probe)});
                  grid.attacks.push_back({"release", attack([&] {
                    probe();
                    const std::lock_guard<std::mutex> lock(mutex);
                    released = true;
                    cv.notify_all();
                  })});
                  ctx.run_grid("held", std::move(grid));
                }});
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();

  // One worker sits in cell 0; the other runs cells 1-4 in order.
  ASSERT_EQ(probes.size(), 4u);
  EXPECT_FALSE(probes[0].has_value());  // no run had finished yet
  for (std::size_t i = 1; i < probes.size(); ++i) {
    ASSERT_TRUE(probes[i].has_value()) << i;
    EXPECT_EQ(probes[i]->sweep, "held");
    EXPECT_EQ(probes[i]->cells_done, 0u);
    EXPECT_EQ(probes[i]->cells_total, 5u);
    EXPECT_EQ(probes[i]->worker_busy_fraction.size(), 2u);
    if (i > 1) {
      EXPECT_GT(probes[i]->elapsed_seconds, probes[i - 1]->elapsed_seconds);
    }
  }
  EXPECT_EQ(read_status_file(opts.status_file).cells_done, 5u);
  std::filesystem::remove_all(root);
}

TEST(SweepDriverTest, ObservabilityPathsCreateParentDirsAndStatusTracksSweep) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_observability_parents");
  std::filesystem::remove_all(root);

  // Like --out-dir, the observability outputs create missing parent
  // directories instead of failing on first write.
  SweepOptions opts = grid_options(root + "/out");
  opts.metrics_path = root + "/deep/metrics/metrics.json";
  opts.trace_dir = root + "/deep/traces";
  opts.status_file = root + "/deep/status/heartbeat.json";

  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();
  EXPECT_TRUE(std::filesystem::exists(opts.metrics_path));
  EXPECT_TRUE(std::filesystem::exists(root + "/deep/traces/grid-cell0.json"));
  EXPECT_TRUE(std::filesystem::exists(opts.status_file));
  EXPECT_FALSE(std::filesystem::exists(opts.status_file + ".tmp"));

  // The final heartbeat: every cell done, per-worker busy fractions from
  // the pool that ran the grid.
  const json::Value status =
      json::parse_document(read_file(opts.status_file));
  EXPECT_EQ(json::get_string(status, "sweep"), "grid");
  EXPECT_EQ(json::get_u64(status, "cells_done"), 4u);
  EXPECT_EQ(json::get_u64(status, "cells_total"), 4u);
  EXPECT_GE(json::get_f64(status, "elapsed_seconds"), 0.0);
  const json::Value& workers = json::get_array(status, "workers");
  EXPECT_EQ(workers.items.size(), 2u);  // grid_options runs 2 threads
  for (const json::Value& w : workers.items) {
    const double f = json::as_f64(w, "worker fraction");
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0 + 1e-9);
  }

  // The metrics file carries the run telemetry.
  const MetricsFile metrics = read_metrics_json(opts.metrics_path);
  ASSERT_EQ(metrics.sweeps.size(), 1u);
  EXPECT_FALSE(metrics.sweeps[0].telemetry.empty());
  EXPECT_GT(metrics.sweeps[0].telemetry.billing_error.count(), 0u);
  EXPECT_EQ(metrics.sweeps[0].telemetry.cell_seconds.count(), 4u);
  std::filesystem::remove_all(root);
}

// --- mtr_inspect ------------------------------------------------------------------

TEST(InspectArgsTest, RequiresExactlyOneModeAndStrictTop) {
  const char* metrics[] = {"mtr_inspect", "--metrics", "m.json"};
  EXPECT_EQ(parse_inspect_args(3, metrics).metrics_path, "m.json");

  const char* compare[] = {"mtr_inspect", "--compare", "a.json", "b.json"};
  const InspectOptions c = parse_inspect_args(4, compare);
  EXPECT_EQ(c.compare, (std::vector<std::string>{"a.json", "b.json"}));

  const char* top[] = {"mtr_inspect", "--jsonl", "x.jsonl", "--top", "3"};
  EXPECT_EQ(parse_inspect_args(5, top).top, 3u);

  const char* none[] = {"mtr_inspect"};
  EXPECT_THROW(parse_inspect_args(1, none), std::runtime_error);
  const char* both[] = {"mtr_inspect", "--metrics", "m.json", "--trace", "t"};
  EXPECT_THROW(parse_inspect_args(5, both), std::runtime_error);
  const char* bad_top[] = {"mtr_inspect", "--jsonl", "x", "--top", "3x"};
  EXPECT_THROW(parse_inspect_args(5, bad_top), std::runtime_error);
  const char* orphan_top[] = {"mtr_inspect", "--metrics", "m", "--top", "3"};
  EXPECT_THROW(parse_inspect_args(5, orphan_top), std::runtime_error);
  const char* unknown[] = {"mtr_inspect", "--bogus"};
  EXPECT_THROW(parse_inspect_args(2, unknown), std::runtime_error);
  for (const char* bad : {"nan", "inf", "0", "2s"}) {
    const char* stale[] = {"mtr_inspect", "--status-file", "s", "--stale-after",
                           bad};
    EXPECT_THROW(parse_inspect_args(5, stale), UsageError) << bad;
  }
}

TEST(InspectTest, MetricsReportRendersTablesAndSparklines) {
  const auto path = write_metrics_file("inspect-report.json",
                                       {telemetry_metrics("fig04")});
  InspectOptions o;
  o.metrics_path = path;
  std::ostringstream out;
  EXPECT_EQ(run_inspect(o, out), 0);
  const std::string text = out.str();
  EXPECT_NE(text.find("sweep fig04"), std::string::npos) << text;
  EXPECT_NE(text.find("timer_ticks"), std::string::npos);
  EXPECT_NE(text.find("billing_error"), std::string::npos);
  EXPECT_NE(text.find("p999"), std::string::npos);
  EXPECT_NE(text.find("run_queue"), std::string::npos);
  EXPECT_NE(text.find("|"), std::string::npos);  // sparkline frame
  EXPECT_NE(text.find("(empty)"), std::string::npos);  // event_depth unused
}

TEST(InspectTest, SparklineMapsBucketMeansOntoTheRamp) {
  trace::TimeSeries s;
  s.sample(0, 0);
  s.sample(2 * trace::TimeSeries::kBaseWidth, 100);
  const std::string line = render_sparkline(s);
  ASSERT_EQ(line.size(), 3u);
  EXPECT_EQ(line[0], '.');  // lowest level
  EXPECT_EQ(line[1], ' ');  // empty bucket
  EXPECT_EQ(line[2], '@');  // highest level
  EXPECT_TRUE(render_sparkline(trace::TimeSeries{}).empty());
}

TEST(InspectTest, TopCellsRanksByBillingGap) {
  const std::string path = temp_path("inspect-top.jsonl");
  write_shard_jsonl(path, {0, 1, 2});
  InspectOptions o;
  o.jsonl_path = path;
  o.top = 2;
  std::ostringstream out;
  EXPECT_EQ(run_inspect(o, out), 0);
  const std::string text = out.str();
  // synth_cell gives every cell the same gap (0.625); ties break by cell
  // index, so cells 0 and 1 list in order and cell 2 is cut by --top.
  EXPECT_NE(text.find("top 2 of 3 cell(s)"), std::string::npos) << text;
  const std::size_t c0 = text.find("grid#0");
  const std::size_t c1 = text.find("grid#1");
  EXPECT_NE(c0, std::string::npos);
  EXPECT_NE(c1, std::string::npos);
  EXPECT_LT(c0, c1);
  EXPECT_EQ(text.find("grid#2"), std::string::npos);
  EXPECT_NE(text.find("0.625"), std::string::npos);
  std::filesystem::remove(path);
}

TEST(InspectTest, CompareIsCleanOnIdenticalAndFailsOnCounterDeltas) {
  const auto a = write_metrics_file("inspect-cmp-a.json",
                                    {telemetry_metrics("fig04")});
  std::ostringstream same;
  EXPECT_EQ(compare_metrics(same, a, read_metrics_json(a), a,
                            read_metrics_json(a)),
            0);
  EXPECT_NE(same.str().find("counters identical"), std::string::npos);

  // A counter difference (cells) fails; the delta is named and printed.
  trace::SweepMetrics more = telemetry_metrics("fig04");
  more.cells += 1;
  const auto b = write_metrics_file("inspect-cmp-b.json", {more});
  std::ostringstream diff;
  EXPECT_EQ(compare_metrics(diff, a, read_metrics_json(a), b,
                            read_metrics_json(b)),
            1);
  EXPECT_NE(diff.str().find("counter cells: 2 -> 3 (delta 1)"),
            std::string::npos)
      << diff.str();

  // A timing-only difference is reported but does not fail the compare.
  trace::SweepMetrics slower = telemetry_metrics("fig04");
  slower.cell_wall_seconds += 10.0;
  const auto c = write_metrics_file("inspect-cmp-c.json", {slower});
  std::ostringstream timing;
  EXPECT_EQ(compare_metrics(timing, a, read_metrics_json(a), c,
                            read_metrics_json(c)),
            0);
  EXPECT_NE(timing.str().find("timing cell_wall_seconds"), std::string::npos);

  // A sweep present on only one side is a counter-class failure.
  const auto d = write_metrics_file(
      "inspect-cmp-d.json", {telemetry_metrics("fig04"), sample_metrics("fig05", 1)});
  std::ostringstream missing;
  EXPECT_EQ(compare_metrics(missing, a, read_metrics_json(a), d,
                            read_metrics_json(d)),
            1);
  EXPECT_NE(missing.str().find("only in"), std::string::npos);
}

TEST(InspectTest, ShardFoldedMetricsCompareCleanAgainstSingleRun) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_inspect_fold");
  std::filesystem::remove_all(root);

  SweepOptions single = grid_options(root + "/single");
  single.metrics_path = root + "/single/metrics.json";
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, single, out, err), 0) << err.str();

  std::vector<MetricsFile> shard_files;
  for (int shard = 0; shard < 2; ++shard) {
    SweepOptions opts = grid_options(root + "/shard" + std::to_string(shard));
    opts.shard = parse_shard_spec(std::to_string(shard) + "/2");
    opts.metrics_path = opts.out_dir + "/metrics.json";
    ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();
    shard_files.push_back(read_metrics_json(opts.metrics_path));
  }

  // Every counter-class value — kernel counters, series buckets, sketch
  // quantiles — folds to exactly the single-process run's. Timing-class
  // values may differ; compare_metrics excludes them from the verdict.
  const MetricsFile folded = fold_metrics(shard_files);
  EXPECT_EQ(folded.shards, 2u);
  std::ostringstream cmp;
  const int rc = compare_metrics(cmp, "folded", folded, "single",
                                 read_metrics_json(single.metrics_path));
  EXPECT_EQ(rc, 0) << cmp.str();
  EXPECT_NE(cmp.str().find("counters identical"), std::string::npos);
  std::filesystem::remove_all(root);
}

TEST(InspectTest, EachSweepsPoolSpanCoversItsRunsWithOrWithoutKeptCells) {
  // Two sweeps share one pool. Each reports its own span: the grid phase
  // is the span, the sweep phase adds the render, and no worker spent
  // longer on the sweep's runs than the span lasted — also for a shard,
  // whose pool keeps no cells.
  report::SweepRegistry registry;
  for (const char* name : {"first", "second"}) {
    registry.add({name, "two-cell grid", [name](const report::SweepContext& ctx) {
                    core::BatchGrid grid;
                    grid.base = test::quick_experiment(
                        workloads::WorkloadKind::kOurs, ctx.scale);
                    grid.schedulers = {sim::SchedulerKind::kO1,
                                       sim::SchedulerKind::kCfs};
                    ctx.run_grid(name, std::move(grid));
                  }});
  }
  const std::string root = temp_path("dist_pool_spans");
  std::filesystem::remove_all(root);
  for (const char* shard : {"0/1", "0/2"}) {
    SCOPED_TRACE(shard);
    SweepOptions opts = grid_options(root + "/" + shard[0] + shard[2]);
    opts.sweeps = {"first", "second"};
    opts.shard = parse_shard_spec(shard);
    opts.metrics_path = opts.out_dir + "/metrics.json";
    std::ostringstream out, err;
    ASSERT_EQ(run_sweeps(registry, opts, out, err), 0) << err.str();
    const MetricsFile m = read_metrics_json(opts.metrics_path);
    ASSERT_EQ(m.sweeps.size(), 2u);
    for (const trace::SweepMetrics& s : m.sweeps) {
      SCOPED_TRACE(s.sweep);
      EXPECT_EQ(s.pool.threads, 2u);
      EXPECT_GT(s.pool.wall_seconds, 0.0);
      ASSERT_EQ(s.pool.busy_seconds.size(), 2u);
      for (const double busy : s.pool.busy_seconds)
        EXPECT_LE(busy, s.pool.wall_seconds * 1.05 + 1e-6);
      ASSERT_EQ(s.phases.entries().size(), 2u);
      EXPECT_EQ(s.phases.entries()[0].name, "grid");
      EXPECT_EQ(s.phases.entries()[0].seconds, s.pool.wall_seconds);
      EXPECT_EQ(s.phases.entries()[1].name, "sweep");
      EXPECT_GE(s.phases.entries()[1].seconds, s.pool.wall_seconds);
    }
  }
  std::filesystem::remove_all(root);
}

TEST(InspectTest, TraceSummaryReadsAnExportedTrace) {
  const std::string path = temp_path("inspect-trace.json");
  write_file(path, real_artifacts().trace_text);
  InspectOptions o;
  o.trace_path = path;
  std::ostringstream report;
  EXPECT_EQ(run_inspect(o, report), 0);
  const std::string text = report.str();
  EXPECT_NE(text.find("schema \"mtr-trace-1\""), std::string::npos) << text;
  EXPECT_NE(text.find("spans (X)"), std::string::npos);
  EXPECT_NE(
      text.find("event budget: spans + instants == recorded - dropped + 1"),
      std::string::npos)
      << text;
  // counting_registry's factories return nullptr, so every run is a
  // baseline run and the category census says so.
  EXPECT_NE(text.find("categories:"), std::string::npos);
  EXPECT_NE(text.find("baseline"), std::string::npos);
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Fault injection: the deterministic crash schedule behind the chaos tests.

TEST(FaultPlanTest, ParsesComposesAndRoundTrips) {
  const FaultPlan p = parse_fault_plan(
      "crash-after-cell=2,torn-tail=9,sigkill-after-ms=500,fail-flush-at=3");
  ASSERT_TRUE(p.crash_after_cell.has_value());
  EXPECT_EQ(*p.crash_after_cell, 2u);
  EXPECT_EQ(p.torn_tail_bytes, 9u);
  ASSERT_TRUE(p.sigkill_after_ms.has_value());
  EXPECT_EQ(*p.sigkill_after_ms, 500u);
  ASSERT_TRUE(p.fail_flush_at.has_value());
  EXPECT_EQ(*p.fail_flush_at, 3u);
  EXPECT_TRUE(p.active());

  // to_string is the canonical spec: parsing it back yields the same plan
  // (it's what mtr_fleet exports as MTR_FAULT_INJECT).
  const FaultPlan again = parse_fault_plan(to_string(p));
  EXPECT_EQ(again.crash_after_cell, p.crash_after_cell);
  EXPECT_EQ(again.torn_tail_bytes, p.torn_tail_bytes);
  EXPECT_EQ(again.sigkill_after_ms, p.sigkill_after_ms);
  EXPECT_EQ(again.fail_flush_at, p.fail_flush_at);

  const FaultPlan none = parse_fault_plan("");
  EXPECT_FALSE(none.active());
  EXPECT_EQ(to_string(none), "");
}

TEST(FaultPlanTest, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_plan("bogus=1"), std::runtime_error);
  EXPECT_THROW(parse_fault_plan("crash-after-cell"), std::runtime_error);
  EXPECT_THROW(parse_fault_plan("crash-after-cell=x"), std::runtime_error);
  EXPECT_THROW(parse_fault_plan("crash-after-cell=1,,"), std::runtime_error);
  EXPECT_THROW(parse_fault_plan(",crash-after-cell=1"), std::runtime_error);
  // A trailing comma is an empty clause too.
  EXPECT_THROW(parse_fault_plan("crash-after-cell=99,"), std::runtime_error);
  // A repeated clause is refused by name, not silently overridden.
  for (const char* repeated : {"fail-flush-at=1,fail-flush-at=2",
                               "crash-after-cell=99,crash-after-cell=1"}) {
    try {
      parse_fault_plan(repeated);
      ADD_FAILURE() << repeated << " accepted";
    } catch (const std::runtime_error& e) {
      const std::string clause = std::string(repeated).substr(std::string(repeated).find(',') + 1);
      EXPECT_NE(std::string(e.what()).find("clause '" + clause + "' repeats"),
                std::string::npos)
          << e.what();
    }
  }
  // One spelling per plan: grammar order, no leading zeros, no torn-tail=0.
  EXPECT_THROW(parse_fault_plan("sigkill-after-ms=5,crash-after-cell=1"), std::runtime_error);
  EXPECT_THROW(parse_fault_plan("crash-after-cell=01"), std::runtime_error);
  EXPECT_THROW(parse_fault_plan("crash-after-cell=1,torn-tail=0"), std::runtime_error);
  // The J-th flush is 1-based; a zeroth flush can never fire.
  EXPECT_THROW(parse_fault_plan("fail-flush-at=0"), std::runtime_error);
  // A torn tail needs a crash point to tear at.
  EXPECT_THROW(parse_fault_plan("torn-tail=4"), std::runtime_error);
  // The error names the grammar so a bad CLI flag is self-documenting.
  try {
    parse_fault_plan("nope=1");
    FAIL() << "spec accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("grammar"), std::string::npos);
  }
}

/// One seeded edit of a spec or token: a byte replaced by one of the
/// grammar's own characters (`alphabet`), a byte inserted or deleted, a
/// truncation, or a clause dropped, duplicated or swapped with its
/// neighbour.
std::string mutate_spec(const std::string& spec, char separator,
                        std::string_view alphabet, SplitMix64& rng) {
  const char c = alphabet[rng.next() % alphabet.size()];
  std::string out = spec;
  const std::size_t at = spec.empty() ? 0 : rng.next() % spec.size();
  switch (rng.next() % 5) {
    case 0:
      if (!out.empty()) out[at] = c;
      return out;
    case 1:
      return out.insert(at, 1, c);
    case 2:
      return out.empty() ? out : out.erase(at, 1);
    case 3:
      return out.substr(0, at);
    default: {
      std::vector<std::string> parts;
      for (std::size_t pos = 0;;) {
        const std::size_t end = std::min(out.find(separator, pos), out.size());
        parts.push_back(out.substr(pos, end - pos));
        if (end == out.size()) break;
        pos = end + 1;
      }
      const std::size_t i = rng.next() % parts.size();
      switch (rng.next() % 3) {
        case 0:
          parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(i));
          break;
        case 1:
          parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(i), parts[i]);
          break;
        default:
          std::swap(parts[i], parts[(i + 1) % parts.size()]);
      }
      std::string joined;
      for (std::size_t k = 0; k < parts.size(); ++k) {
        if (k > 0) joined += separator;
        joined += parts[k];
      }
      return joined;
    }
  }
}

/// The mutation invariants of one CLI grammar: every spec `parse` accepts
/// comes back unchanged through `to_string`, and every rejection throws a
/// UsageError whose message names the spec. Returns how many mutants were
/// accepted, so a caller can see both branches were reached.
template <typename Parse>
int fuzz_spec_grammar(const std::vector<std::string>& seeds, char separator,
                      std::uint64_t seed, Parse&& parse) {
  constexpr int kMutations = 3000;
  SplitMix64 rng(seed);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::string spec = seeds[rng.next() % seeds.size()];
    for (std::uint64_t edits = 1 + rng.next() % 3; edits > 0; --edits)
      spec = mutate_spec(spec, separator, "0123456789,=/-:acdefhiklmnorstw", rng);
    try {
      const std::string back = parse(spec);
      EXPECT_EQ(back, spec) << "accepted spec did not round-trip";
      ++accepted;
    } catch (const UsageError& e) {
      EXPECT_NE(std::string(e.what()).find("'" + spec + "'"), std::string::npos)
          << "rejection of '" << spec << "' does not name it: " << e.what();
    }
  }
  return accepted;
}

TEST(SpecMutationTest, FaultInjectSpecsRoundTripOrAreRefusedByName) {
  const int accepted = fuzz_spec_grammar(
      {"crash-after-cell=2,torn-tail=9,sigkill-after-ms=500,fail-flush-at=3",
       "crash-after-cell=1,torn-tail=4", "sigkill-after-ms=1", "fail-flush-at=12",
       "crash-after-cell=0,fail-flush-at=7"},
      ',', 0x5EED2000,
      [](const std::string& spec) { return to_string(parse_fault_plan(spec)); });
  EXPECT_GT(accepted, 0);
}

TEST(SpecMutationTest, ShardSpecsRoundTripOrAreRefusedByName) {
  const int accepted = fuzz_spec_grammar(
      {"0/1", "1/3", "12/40", "7/8"}, '/', 0x5EED3000,
      [](const std::string& spec) { return to_string(parse_shard_spec(spec)); });
  EXPECT_GT(accepted, 0);
}

TEST(SketchMutationTest, AcceptedTokensReencodeToThemselves) {
  // Seeds: every pop_*_sketch token of the fig04 golden, plus each
  // column's merge of them (what mtr_merge writes for a cell), so bucket
  // lists with several entries are mutated too.
  const std::vector<std::string> lines = lines_of(read_file(kGoldenCsv));
  ASSERT_GT(lines.size(), 1u);
  const std::vector<std::string> header = report::split_csv_line(lines[0]);
  std::vector<std::string> seeds;
  std::map<std::size_t, QuantileSketch> merged;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::vector<std::string> row = report::split_csv_line(lines[i]);
    for (std::size_t c = 0; c < std::min(header.size(), row.size()); ++c) {
      if (!header[c].starts_with("pop_") || !header[c].ends_with("_sketch")) continue;
      const std::optional<QuantileSketch> s = report::decode_sketch(row[c]);
      ASSERT_TRUE(s) << header[c] << " at line " << i + 1 << ": " << row[c];
      EXPECT_EQ(report::encode_sketch(*s), row[c]);
      seeds.push_back(row[c]);
      merged[c].merge(*s);
    }
  }
  ASSERT_FALSE(seeds.empty());
  for (const auto& [column, sketch] : merged) seeds.push_back(report::encode_sketch(sketch));

  // The codec's alphabet: decimal and hex digits, the field and bucket
  // separators, signs, points and exponents.
  constexpr std::string_view kAlphabet = "0123456789abcdef;: -.e";
  constexpr int kMutations = 20000;
  SplitMix64 rng(0x5EED4000);
  int accepted = 0;
  for (int i = 0; i < kMutations; ++i) {
    std::string token = seeds[rng.next() % seeds.size()];
    for (std::uint64_t edits = 1 + rng.next() % 3; edits > 0; --edits)
      token = mutate_spec(token, ';', kAlphabet, rng);
    // A rejection is nullopt, never a throw; an acceptance is canonical.
    const std::optional<QuantileSketch> s = report::decode_sketch(token);
    if (!s) continue;
    EXPECT_EQ(report::encode_sketch(*s), token) << "accepted token did not round-trip";
    ++accepted;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutations);
}

TEST(FaultInjectorTest, FlushFaultFiresOnTheConfiguredFlushExactlyOnce) {
  FaultInjector injector(parse_fault_plan("fail-flush-at=2"));
  EXPECT_TRUE(injector.active());
  EXPECT_NO_THROW(injector.on_sink_flush("csv"));
  EXPECT_THROW(injector.on_sink_flush("jsonl"), std::runtime_error);
  // One-shot: the retry after the transient failure goes through.
  EXPECT_NO_THROW(injector.on_sink_flush("csv"));
  EXPECT_NO_THROW(injector.on_sink_flush("jsonl"));
}

TEST(FaultInjectorTest, FailFlushAbortsTheSweepAndResumeHeals) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_fault_flush");
  std::filesystem::remove_all(root);
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(root + "/ref"), out, err), 0);

  // The transient flush failure unwinds as an exception (mtr_sweep's main
  // maps it to exit 1 — what the fleet supervisor observes). Cells flush
  // in grid order, two flushes per cell (CSV then JSONL): the 7th flush
  // kills cell 3's CSV write and leaves a clean 3-cell prefix; the 8th
  // kills its JSONL write, so the CSV holds one cell more than the JSONL
  // (header plus two rows per cell).
  for (const std::uint64_t flush : {7u, 8u}) {
    SCOPED_TRACE(flush);
    SweepOptions opts = grid_options(root + "/run" + std::to_string(flush));
    opts.fault.fail_flush_at = flush;
    try {
      run_sweeps(registry, opts, out, err);
      FAIL() << "flush fault did not surface";
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("fault injection"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(lines_of(read_file(opts.out_dir + "/grid.csv")).size(),
              flush == 7 ? 7u : 9u);
    EXPECT_EQ(scan_jsonl(opts.out_dir + "/grid.jsonl").blocks.size(), 3u);

    // A clean --resume keeps the cells the JSONL holds, rebuilds the CSV
    // from them, reruns only the failed one and lands byte-identical to
    // the uninterrupted reference.
    runs = 0;
    opts.fault = FaultPlan{};
    opts.resume = true;
    std::ostringstream err2;
    ASSERT_EQ(run_sweeps(registry, opts, out, err2), 0) << err2.str();
    EXPECT_EQ(runs.load(), 1);  // one seed-invariant cell runs once
    EXPECT_EQ(read_file(opts.out_dir + "/grid.csv"),
              read_file(root + "/ref/grid.csv"));
    EXPECT_EQ(read_file(opts.out_dir + "/grid.jsonl"),
              read_file(root + "/ref/grid.jsonl"));
  }
  std::filesystem::remove_all(root);
}

TEST(FaultInjectorTest, AFailedFlushOnAWidePoolLeavesACleanPrefixThatResumeHeals) {
  // Two sweeps on two workers. Attacked cells are claimed first, so later
  // cells are ready while cell 0 still waits to be written. Once a flush
  // fails nothing more is written: the files hold exactly the cells before
  // the failed one, and a clean --resume appends the rest in order.
  const report::SweepRegistry registry = mixed_registry();
  const std::vector<std::string> sweeps = {"mixA", "mixB"};
  const std::string root = temp_path("dist_fault_prefix");
  std::filesystem::remove_all(root);
  SweepOptions ref = mixed_options(root + "/ref");
  ref.sweeps = sweeps;
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, ref, out, err), 0) << err.str();

  // Flush 2c+1 fails cell c's CSV write, flush 2c+2 its JSONL write.
  for (const std::uint64_t flush : {1u, 2u, 3u}) {
    SCOPED_TRACE(flush);
    SweepOptions opts = ref;
    opts.out_dir = root + "/run" + std::to_string(flush);
    opts.fault.fail_flush_at = flush;
    EXPECT_THROW(run_sweeps(registry, opts, out, err), std::runtime_error);
    std::vector<std::uint64_t> written;  // a sweep no cell reached has no files
    for (const std::string& sweep : sweeps) {
      const std::string jsonl = opts.out_dir + "/" + sweep + ".jsonl";
      if (!std::filesystem::exists(jsonl)) continue;
      for (const CellBlock& b : scan_jsonl(jsonl).blocks)
        written.push_back(b.key.cell_index);
    }
    std::vector<std::uint64_t> prefix((flush - 1) / 2);
    std::iota(prefix.begin(), prefix.end(), std::uint64_t{0});
    EXPECT_EQ(written, prefix);

    opts.fault = FaultPlan{};
    opts.resume = true;
    std::ostringstream err2;
    ASSERT_EQ(run_sweeps(registry, opts, out, err2), 0) << err2.str();
    for (const std::string& sweep : sweeps) {
      for (const char* ext : {".csv", ".jsonl"}) {
        EXPECT_EQ(read_file(opts.out_dir + "/" + sweep + ext),
                  read_file(ref.out_dir + "/" + sweep + ext))
            << sweep << ext;
      }
    }
  }
  std::filesystem::remove_all(root);
}

/// Two sweeps, fsA and fsB, of four attacked cells each (global cells
/// 0-7). The attack factory of cell `*throw_at` throws, so a run fails
/// there; every other one builds nothing and runs as a cheap baseline.
report::SweepRegistry fail_stop_registry(const std::atomic<int>* throw_at) {
  report::SweepRegistry registry;
  for (int s = 0; s < 2; ++s) {
    std::string name = "fs";
    name += static_cast<char>('A' + s);
    registry.add({name, "fail-stop grid", [=](const report::SweepContext& ctx) {
                    core::BatchGrid grid;
                    grid.base = test::quick_experiment(
                        workloads::WorkloadKind::kOurs, ctx.scale);
                    for (int a = 0; a < 4; ++a) {
                      std::string label = "a";
                      label += std::to_string(a);
                      const int cell = 4 * s + a;
                      grid.attacks.push_back(
                          {std::move(label),
                           [throw_at, cell]() -> std::unique_ptr<attacks::Attack> {
                             if (throw_at->load() == cell)
                               throw std::runtime_error("factory fails");
                             return nullptr;
                           }});
                    }
                    ctx.run_grid(name, std::move(grid));
                  }});
  }
  return registry;
}

TEST(FailStopTest, EveryFailedRunPlusOneResumeIsTheUninterruptedRun) {
  // Flushes 1, 2, 7 and 8 fail cell 0's CSV write, its JSONL write, and
  // the fourth written cell's two writes; a factory throws in cell 1 or
  // in cell 5 (the second sweep). Each at 1, 2 and 4 threads, plain, as
  // shard 1/2 (cells 1, 3, 5, 7) and with --metrics, whose lag-one
  // snapshot covers cells before the failure. One clean --resume must
  // then write both files of both sweeps exactly as an uninterrupted
  // run, and fold the same counters.
  std::atomic<int> throw_at{-1};
  const report::SweepRegistry registry = fail_stop_registry(&throw_at);
  const std::string root = temp_path("dist_fail_stop");
  std::filesystem::remove_all(root);
  const std::vector<std::string> sweeps = {"fsA", "fsB"};
  const auto options = [&](const std::string& mode, unsigned threads,
                           const std::string& dir) {
    SweepOptions o = grid_options(dir);
    o.sweeps = sweeps;
    o.threads = threads;
    if (mode == "shard") o.shard = parse_shard_spec("1/2");
    if (mode == "metrics") o.metrics_path = dir + "/metrics.json";
    return o;
  };
  struct Failure {
    std::string what;
    std::uint64_t flush = 0;  // fail-flush-at, or 0
    int cell = -1;            // the throwing factory's cell, or -1
  };
  const std::vector<Failure> failures = {
      {"fail-flush-at=1", 1}, {"fail-flush-at=2", 2},
      {"fail-flush-at=7", 7}, {"fail-flush-at=8", 8},
      {"factory throws at cell 1", 0, 1}, {"factory throws at cell 5", 0, 5}};
  std::ostringstream out, err;
  for (const std::string mode : {"plain", "shard", "metrics"}) {
    const std::string ref = root + "/ref-" + mode;
    ASSERT_EQ(run_sweeps(registry, options(mode, 1, ref), out, err), 0)
        << err.str();
    for (const unsigned threads : {1u, 2u, 4u}) {
      for (const Failure& f : failures) {
        SCOPED_TRACE(mode + ", " + std::to_string(threads) + " thread(s), " +
                     f.what);
        const std::string dir = root + "/run";
        std::filesystem::remove_all(dir);
        SweepOptions o = options(mode, threads, dir);
        if (f.flush != 0) o.fault.fail_flush_at = f.flush;
        throw_at = f.cell;
        EXPECT_ANY_THROW(run_sweeps(registry, o, out, err));

        throw_at = -1;
        o.fault = FaultPlan{};
        o.resume = true;
        std::ostringstream resume_err;
        ASSERT_EQ(run_sweeps(registry, o, out, resume_err), 0)
            << resume_err.str();
        for (const std::string& sweep : sweeps)
          for (const char* ext : {".csv", ".jsonl"})
            EXPECT_EQ(read_file(dir + "/" + sweep + ext),
                      read_file(ref + "/" + sweep + ext))
                << sweep << ext;
        if (mode != "metrics") continue;
        std::ostringstream cmp;
        EXPECT_EQ(compare_metrics(cmp, "resumed",
                                  read_metrics_json(o.metrics_path), "single",
                                  read_metrics_json(ref + "/metrics.json")),
                  0)
            << cmp.str();
      }
    }
  }
  std::filesystem::remove_all(root);
}

TEST(SweepArgsTest, FaultInjectEnvSeedsTheDefaultAndTheFlagOverridesIt) {
  ::setenv("MTR_FAULT_INJECT", "crash-after-cell=3,torn-tail=5", 1);
  const SweepOptions from_env = default_sweep_options();
  ASSERT_TRUE(from_env.fault.crash_after_cell.has_value());
  EXPECT_EQ(*from_env.fault.crash_after_cell, 3u);
  EXPECT_EQ(from_env.fault.torn_tail_bytes, 5u);

  const char* argv[] = {"mtr_sweep", "--fault-inject", "sigkill-after-ms=9",
                        "grid"};
  const SweepOptions from_flag =
      parse_sweep_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_FALSE(from_flag.fault.crash_after_cell.has_value());
  ASSERT_TRUE(from_flag.fault.sigkill_after_ms.has_value());
  EXPECT_EQ(*from_flag.fault.sigkill_after_ms, 9u);
  ::unsetenv("MTR_FAULT_INJECT");

  const char* bad[] = {"mtr_sweep", "--fault-inject", "torn-tail=1", "grid"};
  EXPECT_THROW(parse_sweep_args(4, bad), std::runtime_error);
}

#if GTEST_HAS_DEATH_TEST
TEST(FaultInjectorDeathTest, CrashAfterCellTearsTheTailAndResumeHeals) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_fault_crash");
  // This setup re-runs inside the death-test child, so it must converge
  // to the same state both times.
  std::filesystem::remove_all(root);
  SweepOptions ref = grid_options(root + "/ref");
  ref.metrics_path = root + "/ref/metrics.json";
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, ref, out, err), 0);

  SweepOptions crash = grid_options(root + "/run");
  crash.metrics_path = root + "/run/metrics.json";
  crash.fault = parse_fault_plan("crash-after-cell=2,torn-tail=7");
  EXPECT_EXIT(run_sweeps(registry, crash, out, err),
              ::testing::ExitedWithCode(kFaultCrashExitCode), "");

  // The crash left a provably torn tail, and the scanner names the byte.
  const FileScan torn = scan_jsonl(root + "/run/grid.jsonl");
  EXPECT_FALSE(torn.clean);
  EXPECT_NE(torn.tail_error.find("(byte "), std::string::npos)
      << torn.tail_error;

  // --resume truncates the tear, reruns what the crash-consistent metrics
  // snapshot does not cover, and lands byte-identical to the reference —
  // counters included.
  runs = 0;
  SweepOptions resume = grid_options(root + "/run");
  resume.metrics_path = root + "/run/metrics.json";
  resume.resume = true;
  std::ostringstream err2;
  ASSERT_EQ(run_sweeps(registry, resume, out, err2), 0) << err2.str();
  // The lag-one snapshot covers cell 0 only at the crash point, so cells
  // 1-3 rerun: 3 seed-invariant cells, one run each = 3 factory bumps.
  EXPECT_EQ(runs.load(), 3);
  EXPECT_EQ(read_file(root + "/run/grid.csv"),
            read_file(root + "/ref/grid.csv"));
  EXPECT_EQ(read_file(root + "/run/grid.jsonl"),
            read_file(root + "/ref/grid.jsonl"));
  std::ostringstream cmp;
  EXPECT_EQ(compare_metrics(cmp, "resumed",
                            read_metrics_json(root + "/run/metrics.json"),
                            "single",
                            read_metrics_json(root + "/ref/metrics.json")),
            0)
      << cmp.str();
  std::filesystem::remove_all(root);
}

TEST(FaultInjectorDeathTest, CrashAtSinksOpenLeavesNoCellsAndResumeReruns) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_fault_crash0");
  std::filesystem::remove_all(root);
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(root + "/ref"), out, err), 0);

  SweepOptions crash = grid_options(root + "/run");
  crash.fault = parse_fault_plan("crash-after-cell=0");
  EXPECT_EXIT(run_sweeps(registry, crash, out, err),
              ::testing::ExitedWithCode(kFaultCrashExitCode), "");

  // Whatever the crash left (zero-byte files, at most a CSV header) means
  // "no completed cells" — never an error.
  const ResumeIndex idx = ResumeIndex::scan(root + "/run/grid.jsonl", {7, 8});
  EXPECT_EQ(idx.size(), 0u);

  runs = 0;
  SweepOptions resume = grid_options(root + "/run");
  resume.resume = true;
  std::ostringstream err2;
  ASSERT_EQ(run_sweeps(registry, resume, out, err2), 0) << err2.str();
  EXPECT_EQ(runs.load(), 4);  // everything reruns, once per cell
  EXPECT_EQ(read_file(root + "/run/grid.csv"),
            read_file(root + "/ref/grid.csv"));
  EXPECT_EQ(read_file(root + "/run/grid.jsonl"),
            read_file(root + "/ref/grid.jsonl"));
  std::filesystem::remove_all(root);
}

TEST(FaultInjectorDeathTest, SigkillWatchdogDeliversTheSignal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        FaultInjector injector(parse_fault_plan("sigkill-after-ms=1"));
        injector.arm_sigkill();
        std::this_thread::sleep_for(std::chrono::seconds(30));
        std::_Exit(1);  // unreachable: the watchdog wins
      },
      ::testing::KilledBySignal(SIGKILL), "");
}
#endif  // GTEST_HAS_DEATH_TEST

// ---------------------------------------------------------------------------
// Resume edge cases the supervisor depends on.

TEST(ResumeTest, ZeroByteOrMissingRecordsMeanNoCompletedCells) {
  const std::string dir = temp_path("dist_resume_zero");
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string jsonl = dir + "/grid.jsonl";

  // The file a kill right after open leaves, and no file at all.
  write_file(jsonl, "");
  for (int missing = 0; missing < 2; ++missing) {
    if (missing) std::filesystem::remove(jsonl);
    const ResumeIndex index = ResumeIndex::scan(jsonl, {7, 8});
    EXPECT_EQ(index.size(), 0u);
    EXPECT_EQ(index.valid_bytes(), 0u);
    EXPECT_NO_THROW(index.truncate());
    EXPECT_EQ(std::filesystem::exists(jsonl), missing == 0);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Crash consistency: every byte boundary of the final record is a safe
// truncation point — the scanners recover exactly the complete prefix no
// matter where the tear lands.

TEST(CrashConsistencyTest, EveryTornByteOfTheFinalRecordRecoversThePrefix) {
  std::atomic<int> runs{0};
  const report::SweepRegistry registry = counting_registry(&runs);
  const std::string root = temp_path("dist_torn_sweep");
  std::filesystem::remove_all(root);
  std::ostringstream out, err;
  ASSERT_EQ(run_sweeps(registry, grid_options(root + "/ref"), out, err), 0);
  const std::string ref_csv = read_file(root + "/ref/grid.csv");
  const std::string ref_jsonl = read_file(root + "/ref/grid.jsonl");

  // The canonical 3-cell prefix: tear one byte, scan, truncate. Its CSV
  // is the header and the first three cells' rows.
  const std::string dir = root + "/cut";
  std::filesystem::create_directories(dir);
  const std::string cut_csv = dir + "/grid.csv";
  const std::string cut_jsonl = dir + "/grid.jsonl";
  write_file(cut_jsonl, ref_jsonl);
  chop_bytes(cut_jsonl, 1);
  ResumeIndex probe = ResumeIndex::scan(cut_jsonl, {7, 8});
  ASSERT_EQ(probe.size(), 3u);
  probe.truncate();
  const std::string prefix_jsonl = read_file(cut_jsonl);
  ASSERT_LT(prefix_jsonl.size(), ref_jsonl.size());
  const std::uint64_t jsonl_block = ref_jsonl.size() - prefix_jsonl.size();
  const std::vector<std::string> csv_rows = lines_of(ref_csv);
  ASSERT_EQ(csv_rows.size(), 9u);
  const std::string prefix_csv = join_lines({csv_rows.begin(), csv_rows.begin() + 7});

  // Tear the JSONL at every byte of its final cell block: the same prefix
  // survives, and it renders to the same CSV.
  for (std::uint64_t b = 1; b <= jsonl_block; ++b) {
    write_file(cut_jsonl, ref_jsonl);
    chop_bytes(cut_jsonl, b);
    const ResumeIndex idx = ResumeIndex::scan(cut_jsonl, {7, 8});
    ASSERT_EQ(idx.size(), 3u) << "jsonl cut " << b;
    idx.truncate();
    ASSERT_EQ(read_file(cut_jsonl), prefix_jsonl) << "jsonl cut " << b;
    std::ostringstream csv;
    render_csv(cut_jsonl, idx.valid_bytes(), csv);
    ASSERT_EQ(csv.str(), prefix_csv) << "jsonl cut " << b;
  }

  // A CSV torn inside or between its final cell's rows, beside whole
  // records: the resume runs nothing and rebuilds it. (No byte of it is
  // read, so a few cut points stand for all.)
  const std::uint64_t csv_block = ref_csv.size() - prefix_csv.size();
  const std::uint64_t last_row = csv_rows.back().size() + 1;
  SweepOptions opts = grid_options(dir);
  opts.resume = true;
  std::ostringstream err2;
  for (const std::uint64_t b :
       {std::uint64_t{1}, std::uint64_t{2}, last_row - 1, last_row,
        last_row + 1, csv_block - 1, csv_block}) {
    write_file(cut_csv, ref_csv);
    write_file(cut_jsonl, ref_jsonl);
    chop_bytes(cut_csv, b);
    runs = 0;
    ASSERT_EQ(run_sweeps(registry, opts, out, err2), 0) << err2.str();
    ASSERT_EQ(runs.load(), 0) << "csv cut " << b;
    ASSERT_EQ(read_file(cut_csv), ref_csv) << "csv cut " << b;
  }

  // End to end: tear both mid-record, resume, land byte-identical.
  write_file(cut_csv, ref_csv);
  write_file(cut_jsonl, ref_jsonl);
  chop_bytes(cut_csv, csv_block / 2);
  chop_bytes(cut_jsonl, jsonl_block / 2);
  ASSERT_EQ(run_sweeps(registry, opts, out, err2), 0) << err2.str();
  EXPECT_EQ(read_file(cut_csv), ref_csv);
  EXPECT_EQ(read_file(cut_jsonl), ref_jsonl);
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Merge failure taxonomy: exit 2 = corrupt bytes, exit 3 = wrong shard set.

TEST(MergeTaxonomyTest, CorruptInputExitsTwoAndNamesFileLineAndByte) {
  const std::string root = temp_path("dist_merge_tax2");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/s0.jsonl", {0});
  chop_bytes(root + "/s0.jsonl", 3);

  MergeOptions o;
  o.jsonl_out = root + "/m.jsonl";
  o.jsonl_in = {root + "/s0.jsonl"};
  std::ostringstream out, err;
  EXPECT_EQ(run_merge(o, out, err), 2);
  EXPECT_NE(err.str().find(root + "/s0.jsonl:"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("(byte "), std::string::npos) << err.str();

  try {
    merge_jsonl({root + "/s0.jsonl"});
    FAIL() << "torn shard accepted";
  } catch (const MergeError& e) {
    EXPECT_EQ(e.fault, MergeFault::kCorrupt);
    EXPECT_NE(std::string(e.what()).find("(byte "), std::string::npos);
  }
  std::filesystem::remove_all(root);
}

TEST(MergeTaxonomyTest, GapAndDuplicateExitThree) {
  const std::string root = temp_path("dist_merge_tax3");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/s0.jsonl", {0});
  write_shard_jsonl(root + "/s2.jsonl", {2});

  MergeOptions gap;
  gap.jsonl_out = root + "/m.jsonl";
  gap.jsonl_in = {root + "/s0.jsonl", root + "/s2.jsonl"};
  std::ostringstream out, err;
  EXPECT_EQ(run_merge(gap, out, err), 3);
  EXPECT_NE(err.str().find("missing"), std::string::npos) << err.str();

  write_shard_jsonl(root + "/dup.jsonl", {0});
  MergeOptions dup;
  dup.jsonl_out = root + "/m.jsonl";
  dup.jsonl_in = {root + "/s0.jsonl", root + "/dup.jsonl"};
  std::ostringstream err2;
  EXPECT_EQ(run_merge(dup, out, err2), 3);
  EXPECT_NE(err2.str().find("duplicate"), std::string::npos) << err2.str();

  try {
    merge_jsonl({root + "/s0.jsonl", root + "/s2.jsonl"});
    FAIL() << "gap accepted";
  } catch (const MergeError& e) {
    EXPECT_EQ(e.fault, MergeFault::kGapOrDuplicate);
  }
  std::filesystem::remove_all(root);
}

TEST(MergeTaxonomyTest, AllowGapsMergesSurvivorsAndReportsTheMissing) {
  const std::string root = temp_path("dist_merge_gaps");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  write_shard_jsonl(root + "/s0.jsonl", {0});
  write_shard_jsonl(root + "/s2.jsonl", {2, 3});

  MergeOptions o;
  o.allow_gaps = true;
  o.jsonl_out = root + "/m.jsonl";
  o.jsonl_in = {root + "/s0.jsonl", root + "/s2.jsonl"};
  std::vector<std::uint64_t> cells;
  std::ostringstream out, err;
  EXPECT_EQ(run_merge(o, out, err, &cells), 0) << err.str();
  EXPECT_EQ(cells, (std::vector<std::uint64_t>{0, 2, 3}));
  EXPECT_NE(err.str().find("1 cell(s) missing (merged with --allow-gaps): 1\n"),
            std::string::npos)
      << err.str();
  EXPECT_EQ(read_file(root + "/m.jsonl"),
            read_file(root + "/s0.jsonl") + read_file(root + "/s2.jsonl"));
  std::filesystem::remove_all(root);
}

// ---------------------------------------------------------------------------
// Status heartbeats: one staleness definition for every consumer.

TEST(StatusTest, RoundTripsAndSharesTheStalenessDefinition) {
  StatusSnapshot s;
  s.sweep = "grid";
  s.cells_done = 3;
  s.cells_total = 8;
  s.elapsed_seconds = 1.5;
  s.eta_seconds = 2.5;
  s.worker_busy_fraction = {0.5, 0.25};
  const std::string path = temp_path("dist_status_rt.json");
  write_status_file(path, s);
  const StatusSnapshot r = read_status_file(path);
  EXPECT_EQ(r.sweep, "grid");
  EXPECT_EQ(r.cells_done, 3u);
  EXPECT_EQ(r.cells_total, 8u);
  EXPECT_DOUBLE_EQ(r.elapsed_seconds, 1.5);
  ASSERT_TRUE(r.eta_seconds.has_value());
  EXPECT_DOUBLE_EQ(*r.eta_seconds, 2.5);
  EXPECT_EQ(r.worker_busy_fraction, (std::vector<double>{0.5, 0.25}));

  // Control characters in the sweep name are escaped: still valid JSON.
  s.sweep = "grid\n\t\"x\"";
  write_status_file(path, s);
  EXPECT_EQ(read_status_file(path).sweep, s.sweep);

  // A null ETA (cells_done == 0) round-trips as "no estimate".
  s.eta_seconds.reset();
  write_status_file(path, s);
  EXPECT_FALSE(read_status_file(path).eta_seconds.has_value());

  // The shared staleness rule the supervisor and the inspector both use.
  EXPECT_DOUBLE_EQ(kDefaultStaleAfterSeconds, 30.0);
  EXPECT_FALSE(heartbeat_stale(29.0, 30.0));
  EXPECT_TRUE(heartbeat_stale(30.5, 30.0));
  EXPECT_FALSE(heartbeat_stale(1e9, 0.0));  // non-positive threshold = off

  EXPECT_FALSE(
      status_file_age_seconds(temp_path("dist_status_absent.json")).has_value());
  std::optional<double> age = status_file_age_seconds(path);
  ASSERT_TRUE(age.has_value());
  EXPECT_GE(*age, 0.0);
  EXPECT_LT(*age, 60.0);
  std::filesystem::last_write_time(
      path, std::filesystem::last_write_time(path) - std::chrono::minutes(2));
  age = status_file_age_seconds(path);
  ASSERT_TRUE(age.has_value());
  EXPECT_GE(*age, 100.0);
  std::filesystem::remove(path);
}

TEST(InspectTest, StatusFileReportsFreshAndStaleHeartbeats) {
  StatusSnapshot s;
  s.sweep = "grid";
  s.cells_done = 3;
  s.cells_total = 8;
  s.elapsed_seconds = 1.5;
  s.worker_busy_fraction = {1.0};
  const std::string path = temp_path("dist_status_inspect.json");
  write_status_file(path, s);

  InspectOptions o;
  o.status_path = path;
  std::ostringstream fresh;
  EXPECT_EQ(run_inspect(o, fresh), 0);
  EXPECT_NE(fresh.str().find("grid"), std::string::npos) << fresh.str();
  EXPECT_NE(fresh.str().find("3/8"), std::string::npos) << fresh.str();
  EXPECT_NE(fresh.str().find("alive"), std::string::npos) << fresh.str();

  // Age the heartbeat past the shared default threshold: stale, exit 1.
  std::filesystem::last_write_time(
      path, std::filesystem::last_write_time(path) - std::chrono::minutes(2));
  std::ostringstream stale;
  EXPECT_EQ(run_inspect(o, stale), 1);
  EXPECT_NE(stale.str().find("STALE"), std::string::npos) << stale.str();

  // A custom window rescues it; a sub-age window condemns it.
  o.stale_after = 3600.0;
  std::ostringstream wide;
  EXPECT_EQ(run_inspect(o, wide), 0);
  o.stale_after = 0.001;
  std::ostringstream tight;
  EXPECT_EQ(run_inspect(o, tight), 1);

  // A vanished file is a dead shard, not a crash.
  o.stale_after = 0.0;
  o.status_path = temp_path("dist_status_gone.json");
  std::ostringstream gone;
  EXPECT_EQ(run_inspect(o, gone), 1);
  EXPECT_NE(gone.str().find("STALE"), std::string::npos) << gone.str();
  std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// Fleet supervisor: deterministic backoff, argv parsing, and (when the
// bench binaries are built) the live self-healing end-to-end paths.

TEST(FleetBackoffTest, DeterministicCappedExponentialWithJitter) {
  // Pure function: same inputs, same delay.
  const std::uint64_t first = backoff_delay_ms(250, 1, 42, 0);
  EXPECT_EQ(first, backoff_delay_ms(250, 1, 42, 0));
  // Exponential floor with jitter bounded at half the deterministic delay.
  EXPECT_GE(first, 250u);
  EXPECT_LE(first, 375u);
  const std::uint64_t second = backoff_delay_ms(250, 2, 42, 0);
  EXPECT_GE(second, 500u);
  EXPECT_LE(second, 750u);
  // The cap holds no matter how many attempts have piled up.
  const std::uint64_t capped = backoff_delay_ms(250, 60, 42, 0);
  EXPECT_GE(capped, 30000u);
  EXPECT_LE(capped, 45000u);
  // Jitter decorrelates shards deterministically.
  EXPECT_NE(backoff_delay_ms(250, 1, 42, 0), backoff_delay_ms(250, 1, 42, 1));
  EXPECT_NE(backoff_delay_ms(250, 1, 42, 0), backoff_delay_ms(250, 1, 43, 0));
  // A zero base floors to 1ms — a restart loop must never go hot.
  EXPECT_EQ(backoff_delay_ms(0, 1, 7, 3), 1u);
  // The jitter stream is part of a chaos run's reproducible schedule, so
  // exact delays are pinned too.
  EXPECT_EQ(first, 349u);
  EXPECT_EQ(second, 685u);
  EXPECT_EQ(capped, 38556u);
  EXPECT_EQ(backoff_delay_ms(250, 1, 42, 1), 321u);
  EXPECT_EQ(backoff_delay_ms(250, 1, 43, 0), 285u);
  EXPECT_EQ(backoff_delay_ms(1000, 3, 7, 2), 4723u);
  EXPECT_EQ(backoff_delay_ms(100, 0, 0, 0), 120u);  // attempt 0 counts as 1
}

TEST(FleetWaitTest, WakesWhenAChildExitsAndOtherwiseAtTheTimeout) {
  using namespace std::chrono_literals;
  using Clock = std::chrono::steady_clock;
  const pid_t quick = ::fork();
  ASSERT_GE(quick, 0);
  if (quick == 0) ::_exit(0);
  Clock::time_point t0 = Clock::now();
  wait_for_exit({quick}, 10s);
  EXPECT_LT(Clock::now() - t0, 5s);
  int st = 0;
  EXPECT_EQ(::waitpid(quick, &st, 0), quick);

  const pid_t idle = ::fork();
  ASSERT_GE(idle, 0);
  if (idle == 0) {
    ::pause();
    ::_exit(0);
  }
  t0 = Clock::now();
  wait_for_exit({idle}, 200ms);
  const auto waited = Clock::now() - t0;
  EXPECT_GE(waited, 200ms);
  EXPECT_LT(waited, 5s);
  ::kill(idle, SIGKILL);
  EXPECT_EQ(::waitpid(idle, &st, 0), idle);

  // Nothing to watch: the wait is a plain sleep.
  t0 = Clock::now();
  wait_for_exit({}, 50ms);
  EXPECT_GE(Clock::now() - t0, 50ms);
}

TEST(FleetWaitTest, TheSupervisorWaitsOnlyWhileAShardIsUnsettled) {
  using namespace std::chrono_literals;
  const auto now = std::chrono::steady_clock::now();
  const ShardWait done{true, -1, now};
  const ShardWait failed{true, -1, now + 5s};  // no retry left
  // Every shard settled: no wait at all, however the last one ended.
  EXPECT_FALSE(next_wait(std::vector<ShardWait>{}, now, 50ms).has_value());
  EXPECT_FALSE(next_wait(std::vector{done, failed}, now, 50ms).has_value());

  // Running shards: their pids, at the heartbeat interval.
  const std::optional<FleetWait> running =
      next_wait(std::vector{done, ShardWait{false, 101, now},
                            ShardWait{false, 102, now}},
                now, 50ms);
  ASSERT_TRUE(running.has_value());
  EXPECT_EQ(running->pids, (std::vector<pid_t>{101, 102}));
  EXPECT_EQ(running->timeout, 50ms);

  // A shard awaiting its relaunch: no pid, and the wait ends when the
  // backoff does, or at once when it is already due.
  const ShardWait relaunch{false, -1, now + 20ms};
  const std::optional<FleetWait> backoff =
      next_wait(std::vector{done, relaunch}, now, 50ms);
  ASSERT_TRUE(backoff.has_value());
  EXPECT_TRUE(backoff->pids.empty());
  EXPECT_EQ(backoff->timeout, 20ms);
  const std::optional<FleetWait> due = next_wait(
      std::vector{ShardWait{false, -1, now - 5ms}, ShardWait{false, 7, now}},
      now, 50ms);
  ASSERT_TRUE(due.has_value());
  EXPECT_EQ(due->pids, (std::vector<pid_t>{7}));
  EXPECT_EQ(due->timeout, 0ms);
  // A backoff longer than the interval still wakes for the heartbeats.
  const std::optional<FleetWait> later = next_wait(
      std::vector{ShardWait{false, -1, now + 2s}, ShardWait{false, 7, now}},
      now, 50ms);
  ASSERT_TRUE(later.has_value());
  EXPECT_EQ(later->timeout, 50ms);
}

TEST(FleetArgsTest, ParsesFlagsAndRejectsBadFaultSpecs) {
  const char* argv[] = {
      "mtr_fleet",     "fig04",          "--shards",       "8",
      "--out-dir",     "/tmp/fleet",     "--max-retries",  "5",
      "--backoff-base", "10",            "--heartbeat-timeout", "2.5",
      "--fleet-seed",  "9",              "--allow-partial",
      "--fault-inject", "3:crash-after-cell=1,torn-tail=4",
      "--scale",       "0.5",            "--seeds",        "3"};
  const FleetOptions o =
      parse_fleet_args(static_cast<int>(std::size(argv)), argv);
  EXPECT_EQ(o.sweeps, (std::vector<std::string>{"fig04"}));
  EXPECT_EQ(o.shards, 8u);
  EXPECT_EQ(o.out_dir, "/tmp/fleet");
  EXPECT_EQ(o.max_retries, 5u);
  EXPECT_EQ(o.backoff_base_ms, 10u);
  EXPECT_DOUBLE_EQ(o.heartbeat_timeout, 2.5);
  EXPECT_EQ(o.fleet_seed, 9u);
  EXPECT_TRUE(o.allow_partial);
  ASSERT_EQ(o.faults.size(), 1u);
  EXPECT_EQ(o.faults[0].first, 3u);
  EXPECT_EQ(o.faults[0].second, "crash-after-cell=1,torn-tail=4");
  // Workload flags are kept exactly as typed, in order, for forwarding.
  EXPECT_EQ(o.sweep_args,
            (std::vector<std::string>{"--scale", "0.5", "--seeds", "3"}));

  const char* no_colon[] = {"mtr_fleet", "--fault-inject", "crash-after-cell=1"};
  EXPECT_THROW(parse_fleet_args(3, no_colon), std::runtime_error);
  const char* bad_spec[] = {"mtr_fleet", "--fault-inject", "0:bogus=1"};
  EXPECT_THROW(parse_fleet_args(3, bad_spec), std::runtime_error);
  const char* dup[] = {"mtr_fleet", "--fault-inject", "0:crash-after-cell=1",
                       "--fault-inject", "0:sigkill-after-ms=5"};
  EXPECT_THROW(parse_fleet_args(5, dup), std::runtime_error);
  const char* bad_shard[] = {"mtr_fleet", "--fault-inject",
                             "x:crash-after-cell=1"};
  EXPECT_THROW(parse_fleet_args(3, bad_shard), std::runtime_error);
  // The metrics fold always runs; no flag skips it.
  const char* no_metrics[] = {"mtr_fleet", "--out-dir", "x", "fig04",
                              "--no-metrics"};
  EXPECT_THROW(parse_fleet_args(5, no_metrics), UsageError);

  // Non-finite and out-of-range values are refused, not truncated.
  for (const auto& [flag, value] :
       std::vector<std::pair<const char*, const char*>>{
           {"--shards", "4294967296"},
           {"--max-retries", "4294967296"},
           {"--fault-inject", "4294967296:crash-after-cell=1"},
           {"--heartbeat-timeout", "nan"},
           {"--heartbeat-timeout", "inf"}}) {
    const char* args[] = {"mtr_fleet", flag, value};
    EXPECT_THROW(parse_fleet_args(3, args), UsageError) << flag << " " << value;
  }
  // The supervisor polls at a fixed interval and puts no wall-clock limit
  // on an attempt: neither --poll-ms nor --wall-timeout is a flag.
  for (const auto& [flag, value] :
       std::vector<std::pair<const char*, const char*>>{
           {"--wall-timeout", "nan"},
           {"--wall-timeout", "-inf"},
           {"--wall-timeout", "5"},
           {"--poll-ms", "10"}}) {
    const char* args[] = {"mtr_fleet", "--out-dir", "x", "fig04", flag, value};
    EXPECT_THROW(parse_fleet_args(6, args), UsageError) << flag << " " << value;
  }
}

TEST(FleetArgsTest, WorkloadFlagsAreRefusedWithTheSweepMessage) {
  const auto message = [](auto parse, const char* flag, const char* value) {
    const char* args[] = {"mtr", flag, value};
    try {
      parse(3, args);
    } catch (const UsageError& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  for (const auto& [flag, value] :
       std::vector<std::pair<const char*, const char*>>{{"--scale", "2x"},
                                                        {"--engine", "warp"},
                                                        {"--threads", "0"},
                                                        {"--seeds", "3.5"}}) {
    const std::string sweep = message(parse_sweep_args, flag, value);
    EXPECT_NE(sweep, "accepted") << flag << " " << value;
    EXPECT_EQ(message(parse_fleet_args, flag, value), sweep)
        << flag << " " << value;
  }
}

#ifdef MTR_SWEEP_BIN

TEST(SweepArgsTest, PopulationCapIsStrict) {
  // MTR_BENCH_POP=N swaps pop_billing_gap's population axis for {2, N}.
  // Like every MTR_BENCH_* variable it is a strict integer that must fit
  // its 32-bit destination: 4294967298 is refused, not wrapped to 2.
  const std::pair<const char*, int> rows[] = {
      {"4", 0}, {"4294967296", 2}, {"4294967298", 2}, {"1", 2}, {"8x", 2}};
  for (const auto& [value, code] : rows) {
    const std::string cmd = std::string("MTR_BENCH_POP=") + value + " " +
                            MTR_SWEEP_BIN +
                            " pop_billing_gap --dry-run >/dev/null 2>&1";
    EXPECT_EQ(WEXITSTATUS(std::system(cmd.c_str())), code) << value;
  }
}

/// Fleet options sized for the test registry's cheapest real sweep.
FleetOptions quick_fleet(const std::string& out_dir) {
  FleetOptions o = default_fleet_options();
  o.sweep_bin = MTR_SWEEP_BIN;
  o.out_dir = out_dir;
  o.shards = 4;
  o.sweeps = {"fig04"};
  o.sweep_args = {"--scale", "0.02", "--seeds", "2", "--threads", "2"};
  o.quiet = true;
  o.backoff_base_ms = 1;
  o.fleet_seed = 42;
  return o;
}

TEST(FleetTest, ChaosFleetMergesByteIdenticalToASingleProcessRun) {
  const std::string root = temp_path("dist_fleet_chaos");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);

  // The clean single-process reference, produced by the real binary with
  // the same workload shape the shards get.
  const std::string ref = root + "/ref";
  const std::string cmd = std::string(MTR_SWEEP_BIN) +
      " fig04 --scale 0.02 --seeds 2 --threads 2 --quiet --no-progress"
      " --metrics " + ref + "/metrics.json --out-dir " + ref +
      " > " + root + "/ref.log 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);

  // The fleet, under an adversarial schedule: shard 0 crashes after its
  // first cell and tears 9 bytes off every sink; shard 1 takes a SIGKILL
  // almost immediately.
  FleetOptions o = quick_fleet(root + "/fleet");
  o.faults = {{0u, "crash-after-cell=1,torn-tail=9"},
              {1u, "sigkill-after-ms=1"}};
  std::ostringstream out, err;
  FleetReport report;
  ASSERT_EQ(run_fleet(o, out, err, &report), 0) << err.str();
  EXPECT_EQ(report.total_cells, 8u);
  EXPECT_TRUE(report.merged);
  ASSERT_EQ(report.shards.size(), 4u);
  for (const ShardOutcome& s : report.shards) EXPECT_TRUE(s.succeeded);
  EXPECT_EQ(report.shards[0].attempts, 2u);  // the injected crash cost one
  // The supervisor saw the injected deaths and healed them.
  EXPECT_NE(err.str().find("exited with code 70"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("killed by signal 9"), std::string::npos)
      << err.str();

  // The headline guarantee: byte-identical merged outputs, exact counters.
  EXPECT_EQ(read_file(root + "/fleet/merged/fig04.csv"),
            read_file(ref + "/fig04.csv"));
  EXPECT_EQ(read_file(root + "/fleet/merged/fig04.jsonl"),
            read_file(ref + "/fig04.jsonl"));
  std::ostringstream cmp;
  EXPECT_EQ(
      compare_metrics(cmp, "fleet",
                      read_metrics_json(root + "/fleet/merged/metrics.json"),
                      "single", read_metrics_json(ref + "/metrics.json")),
      0)
      << cmp.str();
  std::filesystem::remove_all(root);
}

TEST(FleetTest, AllowPartialMergesSurvivorsAndWritesTheGapManifest) {
  const std::string root = temp_path("dist_fleet_partial");
  std::filesystem::remove_all(root);
  FleetOptions o = quick_fleet(root);
  o.faults = {{2u, "fail-flush-at=1"}};
  o.max_retries = 0;  // the fault would heal on retry; forbid it
  o.allow_partial = true;
  std::ostringstream out, err;
  FleetReport report;
  ASSERT_EQ(run_fleet(o, out, err, &report), 0) << err.str();
  ASSERT_EQ(report.shards.size(), 4u);
  EXPECT_FALSE(report.shards[2].succeeded);
  EXPECT_TRUE(report.merged);
  // Exactly the cells shard 2 would have written are missing.
  const std::string dry = root + "/dry.log";
  const std::string cmd = std::string(MTR_SWEEP_BIN) +
                          " fig04 --dry-run --shard 2/4 > " + dry + " 2>&1";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  const std::vector<std::uint64_t> owned = planned_cells(read_file(dry));
  ASSERT_EQ(owned.size(), 2u) << read_file(dry);
  EXPECT_EQ(report.missing_cells, owned);
  EXPECT_NE(err.str().find("FAILED"), std::string::npos) << err.str();

  const std::string manifest = read_file(root + "/merged/gaps.json");
  EXPECT_NE(manifest.find("\"record\": \"gap_manifest\""), std::string::npos)
      << manifest;
  EXPECT_NE(manifest.find("\"shard\": 2"), std::string::npos);
  EXPECT_NE(manifest.find("\"missing_cells\": [" + std::to_string(owned[0]) +
                          ", " + std::to_string(owned[1]) + "]"),
            std::string::npos)
      << manifest;

  // The merged JSONL holds exactly the surviving cells, in index order.
  const FileScan merged = scan_jsonl(root + "/merged/fig04.jsonl");
  EXPECT_TRUE(merged.clean);
  std::vector<std::uint64_t> cells, survivors;
  for (const CellBlock& b : merged.blocks) cells.push_back(b.key.cell_index);
  for (std::uint64_t c = 0; c < 8; ++c)
    if (std::find(owned.begin(), owned.end(), c) == owned.end())
      survivors.push_back(c);
  EXPECT_EQ(cells, survivors);
  std::filesystem::remove_all(root);
}

TEST(FleetTest, ExhaustedRetriesFailTheFleetWithAPerShardReport) {
  const std::string root = temp_path("dist_fleet_fail");
  std::filesystem::remove_all(root);
  FleetOptions o = quick_fleet(root);
  o.faults = {{0u, "crash-after-cell=0"}};
  o.max_retries = 0;
  std::ostringstream out, err;
  FleetReport report;
  EXPECT_EQ(run_fleet(o, out, err, &report), 1);
  ASSERT_EQ(report.shards.size(), 4u);
  EXPECT_FALSE(report.shards[0].succeeded);
  EXPECT_EQ(report.shards[0].attempts, 1u);
  EXPECT_EQ(report.shards[0].exit_code, kFaultCrashExitCode);
  EXPECT_FALSE(report.merged);
  EXPECT_NE(err.str().find("retries exhausted"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("FAILED after 1 attempt(s)"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("exit code 70"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("log: "), std::string::npos) << err.str();
  EXPECT_TRUE(std::filesystem::exists(report.shards[0].log_path));
  std::filesystem::remove_all(root);
}

TEST(FleetTest, TheLastExhaustedRetryEndsTheFleetWithoutAWait) {
  // One shard whose only attempt fails: the supervisor returns as soon as
  // it reaps it, instead of sleeping a heartbeat interval (50 ms) with
  // nothing left to watch. Each run pays two short-lived children; the
  // fastest of five must beat the interval that a wait would add alone.
  const std::string root = temp_path("dist_fleet_last_retry");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  const std::string script = root + "/fail.sh";
  write_file(script,
             "#!/bin/sh\n"
             "case \"$*\" in\n"
             "  *--dry-run*) echo 'dry run: 1 sweep(s), 8 cell(s)'; exit 0;;\n"
             "esac\n"
             "exit 3\n");
  std::filesystem::permissions(script, std::filesystem::perms::owner_all,
                               std::filesystem::perm_options::add);
  auto fastest = std::chrono::steady_clock::duration::max();
  for (int attempt = 0; attempt < 5; ++attempt) {
    FleetOptions o = quick_fleet(root + "/fleet" + std::to_string(attempt));
    o.sweep_bin = script;
    o.shards = 1;
    o.max_retries = 0;
    std::ostringstream out, err;
    FleetReport report;
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(run_fleet(o, out, err, &report), 1);
    fastest = std::min(fastest, std::chrono::steady_clock::now() - t0);
    ASSERT_EQ(report.shards.size(), 1u);
    EXPECT_FALSE(report.shards[0].succeeded);
    EXPECT_EQ(report.shards[0].exit_code, 3);
    EXPECT_NE(err.str().find("retries exhausted"), std::string::npos)
        << err.str();
  }
  EXPECT_LT(fastest, std::chrono::milliseconds(50));
  std::filesystem::remove_all(root);
}

TEST(FleetTest, ConcurrentMergesReportTheFirstCorruptSweepInSweepOrder) {
  const std::string root = temp_path("dist_fleet_corrupt");
  std::filesystem::remove_all(root);
  // Two shards' finished outputs of four sweeps, g0..g3 (cells 4k..4k+3 of
  // sweep gk, dealt even/odd), that a stand-in shard binary copies into
  // place. Run records of g2 and g3 are hand-edited, so both merges fail.
  const std::vector<std::string> names = {"g0", "g1", "g2", "g3"};
  for (int shard = 0; shard < 2; ++shard) {
    const std::string dir = root + "/template/shard" + std::to_string(shard);
    std::filesystem::create_directories(dir);
    for (std::uint64_t k = 0; k < names.size(); ++k) {
      report::CsvSink csv(dir + "/" + names[k] + ".csv");
      report::JsonlSink jsonl(dir + "/" + names[k] + ".jsonl");
      for (std::uint64_t c = 4 * k + shard; c < 4 * k + 4; c += 2) {
        csv.write_cell(names[k], synth_cell(c, {7, 8}));
        jsonl.write_cell(names[k], synth_cell(c, {7, 8}));
      }
    }
  }
  for (const char* sweep : {"g2", "g3"}) {
    const std::string path = root + "/template/shard1/" + sweep + ".jsonl";
    std::string bytes = read_file(path);
    const std::size_t at = bytes.find("\"true_seconds\":");
    ASSERT_NE(at, std::string::npos);
    bytes.insert(at + 15, "9");
    write_file(path, bytes);
  }
  const std::string script = root + "/copy.sh";
  write_file(script,
             "#!/bin/sh\n"
             "case \"$*\" in\n"
             "  *--dry-run*) echo 'dry run: 4 sweep(s), 16 cell(s)'; exit 0;;\n"
             "esac\n"
             "while [ $# -gt 0 ]; do\n"
             "  case \"$1\" in\n"
             "    --shard) s=${2%%/*}; shift;;\n"
             "    --out-dir) d=$2; shift;;\n"
             "  esac\n"
             "  shift\n"
             "done\n"
             "exec cp " + root + "/template/shard$s/g0.csv " + root +
             "/template/shard$s/g0.jsonl " + root + "/template/shard$s/g1.csv " +
             root + "/template/shard$s/g1.jsonl " + root +
             "/template/shard$s/g2.csv " + root + "/template/shard$s/g2.jsonl " +
             root + "/template/shard$s/g3.csv " + root +
             "/template/shard$s/g3.jsonl \"$d\"\n");
  std::filesystem::permissions(script, std::filesystem::perms::owner_all,
                               std::filesystem::perm_options::add);

  for (int attempt = 0; attempt < 5; ++attempt) {
    SCOPED_TRACE("run " + std::to_string(attempt));
    FleetOptions o = quick_fleet(root + "/fleet" + std::to_string(attempt));
    o.sweep_bin = script;
    o.shards = 2;
    o.sweeps = names;
    o.max_retries = 0;
    std::ostringstream out, err;
    FleetReport report;
    EXPECT_EQ(run_fleet(o, out, err, &report), 1);
    EXPECT_FALSE(report.merged);
    EXPECT_NE(err.str().find("mtr_fleet: merge of sweep 'g2' failed (exit 2)"),
              std::string::npos)
        << err.str();
    EXPECT_NE(err.str().find("shard1/g2.jsonl:"), std::string::npos) << err.str();
    EXPECT_EQ(err.str().find("g3"), std::string::npos) << err.str();
  }
  std::filesystem::remove_all(root);
}

TEST(FleetTest, StaleHeartbeatGetsTheShardKilledAndReportedAsHung) {
  const std::string root = temp_path("dist_fleet_hang");
  std::filesystem::remove_all(root);
  std::filesystem::create_directories(root);
  // A stand-in shard that answers the preflight then hangs forever
  // without ever writing a heartbeat.
  const std::string script = root + "/hang.sh";
  write_file(script,
             "#!/bin/sh\n"
             "case \"$*\" in\n"
             "  *--dry-run*) echo 'dry run: 1 sweep(s), 8 cell(s)'; exit 0;;\n"
             "esac\n"
             "exec sleep 30\n");
  std::filesystem::permissions(script, std::filesystem::perms::owner_all,
                               std::filesystem::perm_options::add);

  FleetOptions o = quick_fleet(root + "/fleet");
  o.sweep_bin = script;
  o.shards = 1;
  o.max_retries = 0;
  o.heartbeat_timeout = 0.3;
  std::ostringstream out, err;
  FleetReport report;
  EXPECT_EQ(run_fleet(o, out, err, &report), 1);
  ASSERT_EQ(report.shards.size(), 1u);
  EXPECT_FALSE(report.shards[0].succeeded);
  EXPECT_TRUE(report.shards[0].hung);
  EXPECT_EQ(report.shards[0].term_signal, SIGKILL);
  EXPECT_GE(report.shards[0].last_heartbeat_age, 0.3);
  EXPECT_NE(err.str().find("heartbeat stale"), std::string::npos)
      << err.str();
  EXPECT_NE(err.str().find("hung (last heartbeat"), std::string::npos)
      << err.str();
  std::filesystem::remove_all(root);
}

#ifdef MTR_FLEET_BIN
TEST(FleetTest, CliHelpAndUsageExitCodes) {
  EXPECT_EQ(
      WEXITSTATUS(std::system(MTR_FLEET_BIN " --help >/dev/null 2>&1")), 0);
  // No --out-dir: a usage error, exit 2 (distinct from shard failures).
  EXPECT_EQ(
      WEXITSTATUS(std::system(MTR_FLEET_BIN " fig04 >/dev/null 2>&1")), 2);
}
#endif  // MTR_FLEET_BIN

#else  // !MTR_SWEEP_BIN

TEST(FleetTest, EndToEndSuiteNeedsTheBenchBinaries) {
  GTEST_SKIP() << "bench binaries not built (MTR_BUILD_BENCH=OFF) — the "
                  "fleet end-to-end suite needs mtr_sweep/mtr_fleet";
}

#endif  // MTR_SWEEP_BIN

}  // namespace
}  // namespace mtr::dist
