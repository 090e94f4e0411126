// google-benchmark microbenches for the substrate itself: witness-chain
// hashing, record number formatting and encoding, shard merge, mm teardown and kernel
// setup, integrity steps, meter hook overhead on the charge path, and
// engine and sweep-cell rates. These are engineering benchmarks (how fast
// is the simulator), not paper reproductions, and every one is tracked.
//
// The BM_SweepCell_* family is the tracked perf baseline: each iteration
// runs one BatchRunner-equivalent cell (one run_experiment) of the
// fig07/fig08 scheduling-attack sweeps at a fixed scale, so successive
// commits can be compared via bench/perf_baseline.py and BENCH_sim.json.
// BM_EngineCell_*, BM_DestroySpace_*, BM_KernelSetup_*, BM_IntegrityStep_*,
// BM_Sha256Block_*, BM_FormatF64_*, BM_ChargeFlood_*, BM_SinkEncode_*,
// BM_ScanJsonl_* and BM_ReplicaFold_* are tracked alongside, each as a pair
// whose ratio CI pins; BM_MergeJsonl is tracked on its own.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

#include "attacks/scheduling_attack.hpp"
#include "bench/attack_roster.hpp"
#include "core/batch_runner.hpp"
#include "core/experiment.hpp"
#include "core/integrity.hpp"
#include "core/trusted_metering.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "dist/merge.hpp"
#include "dist/records.hpp"
#include "exec/program_base.hpp"
#include "kernel/kernel.hpp"
#include "kernel/o1_scheduler.hpp"
#include "mm/memory_manager.hpp"
#include "report/result_sink.hpp"
#include "sim/simulation.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mtr;

// The SHA-256 compression alone, the cost of one witness-chain step. The
// native bench runs whatever sha256_compress() dispatches to (SHA-NI where
// the CPU has it, the portable code otherwise); CI requires it to be no
// slower than the portable reference.
/// One iteration = 16 compressions over a 1 KiB message.
void sha256_block_bench(benchmark::State& state, crypto::Sha256Compress compress) {
  constexpr int kBlocks = 16;
  std::uint8_t msg[64 * kBlocks];
  for (std::size_t i = 0; i < sizeof msg; ++i)
    msg[i] = static_cast<std::uint8_t>(i * 131 + 7);
  std::uint32_t st[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (auto _ : state) {
    for (int b = 0; b < kBlocks; ++b) compress(st, msg + 64 * b);
    benchmark::DoNotOptimize(st);
  }
  state.SetItemsProcessed(state.iterations() * kBlocks);
}

void BM_Sha256Block_portable(benchmark::State& state) {
  sha256_block_bench(state, &crypto::sha256_compress_portable);
}
BENCHMARK(BM_Sha256Block_portable)->Unit(benchmark::kMicrosecond);

void BM_Sha256Block_native(benchmark::State& state) {
  sha256_block_bench(state, crypto::sha256_compress());
}
BENCHMARK(BM_Sha256Block_native)->Unit(benchmark::kMicrosecond);

// --- record encoding and merging --------------------------------------------
// The formatter pair pins the sinks' double encoding: std::to_chars
// (mtr::append_number) must stay well ahead of the snprintf("%.17g") it
// replaced, byte-identical output and all (common_test checks that).

/// 1024 doubles shaped like record values: seconds, ratios and cycle
/// counts across many magnitudes.
std::vector<double> record_like_doubles() {
  SplitMix64 rng(0xD0B1E5);
  std::vector<double> v(1024);
  for (std::size_t i = 0; i < v.size(); ++i)
    v[i] = static_cast<double>(rng.next() >> 11) * 0x1p-53 *
           std::pow(10.0, static_cast<double>(i % 16) - 6.0);
  return v;
}

void BM_FormatF64_printf(benchmark::State& state) {
  const std::vector<double> values = record_like_doubles();
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (const double v : values) {
      char buf[32];
      const int n = std::snprintf(buf, sizeof buf, "%.17g", v);
      out.append(buf, static_cast<std::size_t>(n));
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_FormatF64_printf)->Unit(benchmark::kMicrosecond);

void BM_FormatF64_native(benchmark::State& state) {
  const std::vector<double> values = record_like_doubles();
  std::string out;
  for (auto _ : state) {
    out.clear();
    for (const double v : values) append_number(out, v);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_FormatF64_native)->Unit(benchmark::kMicrosecond);

/// A synthetic cell (no simulation) with 16 runs whose values and
/// per-tenant sketches vary, aggregated the way BatchRunner does.
core::CellStats synthetic_cell(std::uint64_t index) {
  core::CellStats cell;
  cell.attack_label = index % 2 ? "shell" : "baseline";
  cell.cell_index = index;
  SplitMix64 rng(index);
  for (std::uint64_t i = 0; i < 16; ++i) {
    core::ExperimentResult r;
    const auto draw = [&rng] {
      return static_cast<double>(rng.next() >> 11) * 0x1p-53;
    };
    r.wall_seconds = 1.0 + draw();
    r.billed_seconds = 2.0 + draw();
    r.true_seconds = 2.0 + draw();
    r.overcharge = r.billed_seconds / r.true_seconds;
    r.true_cycles.user = Cycles{rng.next() >> 20};
    for (int t = 0; t < 8; ++t) {
      r.pop_billing_error.add(draw() - 0.5);
      r.pop_billed_seconds.add(draw());
      r.pop_true_seconds.add(draw());
    }
    cell.seeds.push_back(42 + i);
    cell.runs.push_back(r);
    cell.for_each_stat(
        [&](const char*, RunningStats& stat, auto get) { stat.add(get(r)); });
    cell.for_each_sketch(
        [&](const char*, QuantileSketch& sketch, auto get) { sketch.merge(get(r)); });
  }
  return cell;
}

/// mtr_merge's JSONL path (scan, aggregate recompute, splice) over a
/// synthetic 4-shard set of 64 cells dealt round-robin.
void BM_MergeJsonl(benchmark::State& state) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("mtr_bm_merge_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  std::vector<std::string> shards;
  for (int s = 0; s < 4; ++s) {
    shards.push_back((dir / ("shard" + std::to_string(s) + ".jsonl")).string());
    report::JsonlSink sink(shards.back());
    for (std::uint64_t c = static_cast<std::uint64_t>(s); c < 64; c += 4)
      sink.write_cell("synthetic", synthetic_cell(c));
  }
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string merged = dist::merge_jsonl(shards);
    bytes = merged.size();
    benchmark::DoNotOptimize(merged.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_MergeJsonl)->Unit(benchmark::kMillisecond);

/// Discards what it is given, so a bench times the encoder, not I/O.
class NullBuf final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
  std::streamsize xsputn(const char*, std::streamsize n) override { return n; }
};

/// A 250-seed cell. In the replicated cell every seed holds the same
/// result, as a seed-invariant cell does; in the distinct one each run's
/// wall time differs, as in a seed-dependent cell.
core::CellStats seeds_cell(bool replicated) {
  const core::ExperimentResult r = synthetic_cell(1).runs[0];
  core::CellStats cell;
  cell.attack_label = "baseline";
  for (std::uint64_t i = 0; i < 250; ++i) {
    cell.seeds.push_back(42 + i);
    cell.runs.push_back(r);
    if (!replicated) cell.runs.back().wall_seconds += static_cast<double>(i) * 0x1p-20;
  }
  return cell;
}

/// Both record sinks writing one 250-seed cell (seeds_cell) per iteration,
/// as the driver writes them: the cell is encoded once, and the CSV rows
/// are rendered from its lines. CI floors distinct/replicated: the encoder
/// writes a body that repeats the previous run's once, and the renderer
/// reads it once, so the replicated cell costs a fraction of the distinct
/// one.
void sink_encode(benchmark::State& state, bool replicated) {
  const core::CellStats cell = seeds_cell(replicated);
  NullBuf null;
  std::ostream out(&null);
  report::CsvSink csv(out);
  report::JsonlSink jsonl(out);
  std::string lines;
  for (auto _ : state) {
    lines.clear();
    report::encode_cell(lines, "synthetic", cell);
    csv.write_lines(lines);
    jsonl.write_lines(lines);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(cell.runs.size()));
}

void BM_SinkEncode_distinct(benchmark::State& state) { sink_encode(state, false); }
BENCHMARK(BM_SinkEncode_distinct)->Unit(benchmark::kMicrosecond);

void BM_SinkEncode_replicated(benchmark::State& state) { sink_encode(state, true); }
BENCHMARK(BM_SinkEncode_replicated)->Unit(benchmark::kMicrosecond);

/// scan_jsonl of a file of four 250-seed cells (seeds_cell) per iteration,
/// as resume and mtr_merge scan a shard. CI floors distinct/replicated: the
/// scanner walks a run body that repeats the previous run's only up to its
/// head, so the replicated cells cost a fraction of the distinct ones.
void scan_jsonl(benchmark::State& state, bool replicated) {
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("mtr_bm_scan_" + std::to_string(::getpid()) + ".jsonl");
  {
    core::CellStats cell = seeds_cell(replicated);
    report::JsonlSink sink(path.string());
    for (std::uint64_t c = 0; c < 4; ++c) {
      cell.cell_index = c;
      sink.write_cell("synthetic", cell);
    }
  }
  std::size_t runs = 0;
  for (auto _ : state) {
    const dist::FileScan scan = dist::scan_jsonl(path.string());
    runs = 0;
    for (const dist::CellBlock& b : scan.blocks) runs += b.seeds.size();
    benchmark::DoNotOptimize(runs);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(runs));
  std::filesystem::remove(path);
}

void BM_ScanJsonl_distinct(benchmark::State& state) { scan_jsonl(state, false); }
BENCHMARK(BM_ScanJsonl_distinct)->Unit(benchmark::kMicrosecond);

void BM_ScanJsonl_replicated(benchmark::State& state) { scan_jsonl(state, true); }
BENCHMARK(BM_ScanJsonl_replicated)->Unit(benchmark::kMicrosecond);

/// One 250-seed seed-invariant cell through BatchRunner per iteration: the
/// cell runs once and copies that result into its other 249 seeds. With
/// `metrics`, every run also collects kernel counters and telemetry, as
/// each mtr_fleet shard does. CI floors plain/metrics: a copied replicate
/// carries no telemetry, and the cell folds the first run's once with the
/// copies as multiplicity, so the counters cost O(1) per copy.
void replica_fold(benchmark::State& state, bool metrics) {
  core::BatchGrid grid;
  grid.base.kind = workloads::WorkloadKind::kOurs;
  grid.base.workload.scale = 0.002;
  grid.base.trace.collect_stats = metrics;
  for (std::uint64_t seed = 42; seed < 42 + 250; ++seed) grid.seeds.push_back(seed);
  const core::BatchRunner runner(1);
  for (auto _ : state) {
    const std::vector<core::CellStats> cells = runner.run(grid);
    benchmark::DoNotOptimize(cells.front().kstats.timer_ticks);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(grid.seeds.size()));
}

void BM_ReplicaFold_plain(benchmark::State& state) { replica_fold(state, false); }
BENCHMARK(BM_ReplicaFold_plain)->Unit(benchmark::kMicrosecond);

void BM_ReplicaFold_metrics(benchmark::State& state) { replica_fold(state, true); }
BENCHMARK(BM_ReplicaFold_metrics)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// mm layer — address-space teardown. Every scheduling-attack fork that exits
// destroys a space, so teardown must cost what the dying space owns, not
// what the machine has. The pair runs the same resident set on 16 Ki and
// 256 Ki frames of RAM; CI pins their ratio (perf_baseline.py
// --ratio-floor) so an O(RAM) teardown cannot come back.
// ---------------------------------------------------------------------------

/// One iteration creates a space, faults in 8 pages and destroys it, next
/// to a long-lived space holding an eighth of RAM.
void destroy_space_bench(benchmark::State& state, std::uint32_t frames) {
  mm::MemoryManager mm(frames);
  const Tgid resident{1};
  mm.create_space(resident);
  for (std::uint64_t p = 0; p < frames / 8; ++p) mm.touch(resident, PageId{p});
  constexpr std::uint64_t kPages = 8;
  std::int32_t next = 2;
  for (auto _ : state) {
    const Tgid dying{next++};
    mm.create_space(dying);
    for (std::uint64_t p = 0; p < kPages; ++p) mm.touch(dying, PageId{p});
    mm.destroy_space(dying);
  }
  benchmark::DoNotOptimize(mm.frames_used());
  state.SetItemsProcessed(state.iterations());
}

void BM_DestroySpace_ram16k(benchmark::State& state) {
  destroy_space_bench(state, 16 * 1024);
}
BENCHMARK(BM_DestroySpace_ram16k)->Unit(benchmark::kMicrosecond);

void BM_DestroySpace_ram256k(benchmark::State& state) {
  destroy_space_bench(state, 256 * 1024);
}
BENCHMARK(BM_DestroySpace_ram256k)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// kernel setup — the machine model every run_experiment builds. A run must
// pay for the frames and pages it touches, not for the RAM it models. The
// pair boots the same machine on 16 Ki and 256 Ki frames of RAM, runs one
// process that touches a few pages, and tears the machine down; CI pins
// their ratio so a RAM-sized allocation or scan in set-up or teardown
// cannot come back.
// ---------------------------------------------------------------------------

void kernel_setup_bench(benchmark::State& state, std::uint32_t frames) {
  sim::SimConfig config;
  config.kernel.ram_frames = frames;
  const kernel::MemoryProfile mem{PageId{0}, 8, Cycles{10'000}, {}};
  const std::vector<kernel::Step> steps = {
      exec::compute_mem(Cycles{100'000}, mem, "setup.touch"), kernel::ExitStep{}};
  for (auto _ : state) {
    sim::Simulation s(config);
    s.spawn({"toucher", exec::make_step_list("toucher", steps)});
    s.run_all();
    benchmark::DoNotOptimize(s.kernel().memory().frames_used());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_KernelSetup_ram16k(benchmark::State& state) {
  kernel_setup_bench(state, 16 * 1024);
}
BENCHMARK(BM_KernelSetup_ram16k)->Unit(benchmark::kMicrosecond);

void BM_KernelSetup_ram256k(benchmark::State& state) {
  kernel_setup_bench(state, 256 * 1024);
}
BENCHMARK(BM_KernelSetup_ram256k)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// core layer — execution-integrity hashing. A sweep reads only the victim's
// witness, so run_experiment watches the victim group and every other
// group's step must cost a filter check, not a SHA-256 block. The pair runs
// the same steps through a monitor that chains every group and through one
// that watches a group none of them belongs to; CI pins their ratio so the
// filter cannot silently stop filtering.
// ---------------------------------------------------------------------------

/// One iteration = 1024 steps spread over 64 live threads.
void integrity_step_bench(benchmark::State& state, bool watch_other_group) {
  core::ExecutionIntegrityMonitor mon;
  if (watch_other_group) mon.watch(Tgid{1000});
  constexpr int kSteps = 1024;
  for (auto _ : state) {
    for (int i = 0; i < kSteps; ++i) {
      const int id = 1 + i % 64;
      mon.on_step_begin(Cycles{0}, Pid{id}, Tgid{id}, "compute", "loop");
    }
    benchmark::DoNotOptimize(mon);
  }
  state.SetItemsProcessed(state.iterations() * kSteps);
}

void BM_IntegrityStep_all(benchmark::State& state) {
  integrity_step_bench(state, /*watch_other_group=*/false);
}
BENCHMARK(BM_IntegrityStep_all)->Unit(benchmark::kMicrosecond);

void BM_IntegrityStep_unwatched(benchmark::State& state) {
  integrity_step_bench(state, /*watch_other_group=*/true);
}
BENCHMARK(BM_IntegrityStep_unwatched)->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// End-to-end sweep-cell benches — the tracked perf baseline.
// ---------------------------------------------------------------------------

/// Scale is fixed (not MTR_BENCH_SCALE) so BENCH_sim.json numbers stay
/// comparable across machines and commits.
constexpr double kSweepCellScale = 0.05;

/// One iteration = one sweep cell: a full run_experiment with the trusted
/// metering service attached, as BatchRunner executes it for fig07/fig08.
/// `attack` null runs the unattacked baseline cell. Reports simulated
/// virtual megacycles per wall second — the simulator's event rate.
void sweep_cell_bench(benchmark::State& state, workloads::WorkloadKind kind,
                      sim::SchedulerKind sched, bool attacked) {
  double virt_mcycles = 0.0;
  for (auto _ : state) {
    core::ExperimentConfig cfg;
    cfg.kind = kind;
    cfg.workload.scale = kSweepCellScale;
    cfg.sim.scheduler = sched;
    std::unique_ptr<attacks::Attack> attack;
    if (attacked) {
      attack = std::make_unique<attacks::SchedulingAttack>(
          mtr::bench::fork_params(kSweepCellScale, -20));
    }
    const core::ExperimentResult r = core::run_experiment(cfg, attack.get());
    benchmark::DoNotOptimize(r.billed_seconds);
    virt_mcycles += r.wall_seconds *
                    static_cast<double>(cfg.sim.kernel.cpu.v) / 1e6;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["virt_mcycles_per_sec"] =
      benchmark::Counter(virt_mcycles, benchmark::Counter::kIsRate);
}

void BM_SweepCell_fig07_sched_o1(benchmark::State& state) {
  sweep_cell_bench(state, workloads::WorkloadKind::kWhetstone,
                   sim::SchedulerKind::kO1, true);
}
BENCHMARK(BM_SweepCell_fig07_sched_o1)->Unit(benchmark::kMillisecond);

void BM_SweepCell_fig07_sched_cfs(benchmark::State& state) {
  sweep_cell_bench(state, workloads::WorkloadKind::kWhetstone,
                   sim::SchedulerKind::kCfs, true);
}
BENCHMARK(BM_SweepCell_fig07_sched_cfs)->Unit(benchmark::kMillisecond);

void BM_SweepCell_fig08_sched_o1(benchmark::State& state) {
  sweep_cell_bench(state, workloads::WorkloadKind::kBrute,
                   sim::SchedulerKind::kO1, true);
}
BENCHMARK(BM_SweepCell_fig08_sched_o1)->Unit(benchmark::kMillisecond);

void BM_SweepCell_fig08_sched_cfs(benchmark::State& state) {
  sweep_cell_bench(state, workloads::WorkloadKind::kBrute,
                   sim::SchedulerKind::kCfs, true);
}
BENCHMARK(BM_SweepCell_fig08_sched_cfs)->Unit(benchmark::kMillisecond);

void BM_SweepCell_baseline_whetstone_o1(benchmark::State& state) {
  sweep_cell_bench(state, workloads::WorkloadKind::kWhetstone,
                   sim::SchedulerKind::kO1, false);
}
BENCHMARK(BM_SweepCell_baseline_whetstone_o1)->Unit(benchmark::kMillisecond);

void BM_SweepCell_baseline_brute_cfs(benchmark::State& state) {
  sweep_cell_bench(state, workloads::WorkloadKind::kBrute,
                   sim::SchedulerKind::kCfs, false);
}
BENCHMARK(BM_SweepCell_baseline_brute_cfs)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Metering overhead on the charge path. One iteration is a fig10-style cell:
// a Whetstone victim under the roster's NIC flood, the charge-heaviest cell
// shape, with a fixed seed. `_bare` runs it with no hook attached, so the
// kernel skips charge batching; `_service` attaches TrustedMeteringService
// as run_experiment does. CI floors the bare/service wall-time ratio, a
// same-run ratio and so hardware-independent: the service's charge dispatch
// must stay a small share of the cell.
// ---------------------------------------------------------------------------

void charge_flood_bench(benchmark::State& state, bool metered) {
  constexpr Cycles kDrain{1'000'000'000};  // run_experiment's drain
  for (auto _ : state) {
    sim::SimConfig sc;
    sc.kernel.seed = 1234;
    sim::Simulation s(sc);
    core::TrustedMeteringService service(core::Tariff{}, sc.kernel.cpu,
                                         sc.kernel.hz);
    if (metered) service.attach(s.kernel());
    attacks::InterruptFloodAttack attack(mtr::bench::kFloodPacketsPerSecond);
    sim::LaunchOptions opts;
    attack.prepare(s, opts);
    const auto info = workloads::make_workload(workloads::WorkloadKind::kWhetstone,
                                               {kSweepCellScale});
    const Pid victim = s.launch(info.image, std::move(opts));
    const Tgid victim_tg = s.kernel().process(victim).tgid;
    if (metered) service.meter(victim_tg);
    attacks::AttackContext ctx{s, victim, victim_tg, info.hot_addr};
    attack.engage(ctx);
    s.run_until_exit(victim);
    attack.disengage(ctx);
    s.run_all(kDrain);
    benchmark::DoNotOptimize(s.kernel().group_usage(victim_tg).true_cycles.total().v);
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ChargeFlood_bare(benchmark::State& state) {
  charge_flood_bench(state, /*metered=*/false);
}
BENCHMARK(BM_ChargeFlood_bare)->Unit(benchmark::kMillisecond);

void BM_ChargeFlood_service(benchmark::State& state) {
  charge_flood_bench(state, /*metered=*/true);
}
BENCHMARK(BM_ChargeFlood_service)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Engine benches — event-driven calendar queue vs slice-stepped reference
// loop on the workload classes where the queue pays off: mostly-idle and
// I/O-bound cells, where the slice loop burns one iteration (and one hook
// round) per jiffy while the event loop leaps whole sleep/transfer windows
// in O(1), and a compute-bound cell under a NIC flood, where the event
// loop handles each run of arrivals in place (flood_leap) while the slice
// loop scans every device per arrival. The BM_EngineCell_* pairs are
// tracked in BENCH_sim.json, and CI gates the slice/event wall-time ratio
// (hardware-independent) via perf_baseline.py --ratio-floor.
// ---------------------------------------------------------------------------

/// A periodic daemon: a sliver of compute, then a 150-jiffy nap (~0.6 s at
/// HZ=250) — cron-style housekeeping, the canonical mostly-idle cell.
std::vector<exec::Step> idle_daemon_steps() {
  const kernel::KernelConfig cfg;
  const Cycles tick = tick_length(cfg.cpu, cfg.hz);
  std::vector<exec::Step> steps;
  for (int i = 0; i < 200; ++i) {
    steps.push_back(exec::compute(Cycles{tick.v / 10}));
    steps.push_back(exec::syscall(kernel::SysNanosleep{Cycles{tick.v * 150}}));
  }
  return steps;
}

/// A bulk-transfer job against a slow device: short request setup, then a
/// blocking disk I/O spanning many jiffies.
std::vector<exec::Step> io_heavy_steps() {
  std::vector<exec::Step> steps;
  for (int i = 0; i < 150; ++i) {
    steps.push_back(exec::compute(Cycles{500'000}));
    steps.push_back(exec::syscall(kernel::SysDiskIo{}));
  }
  return steps;
}

/// A compute-bound job (0.2 s of plain compute) under the interrupt-
/// flooding attack's junk stream: ~12,000 arrivals, one every ~42,000
/// cycles on average, each billing its handler to the job.
std::vector<exec::Step> nic_flood_steps() {
  std::vector<exec::Step> steps;
  for (int i = 0; i < 4; ++i) steps.push_back(exec::compute(Cycles{126'500'000}));
  return steps;
}

enum class EngineLoad { kIdleDaemon, kIoHeavy, kNicFlood };

void engine_cell_bench(benchmark::State& state, bool event_driven, EngineLoad load) {
  const char* name = "idle-daemon";
  std::vector<exec::Step> (*steps)() = idle_daemon_steps;
  if (load == EngineLoad::kIoHeavy) {
    name = "bulk-reader";
    steps = io_heavy_steps;
  } else if (load == EngineLoad::kNicFlood) {
    name = "flooded-job";
    steps = nic_flood_steps;
  }
  double virt_mcycles = 0.0;
  for (auto _ : state) {
    kernel::KernelConfig cfg;
    cfg.seed = 1234;
    cfg.event_driven = event_driven;
    // The I/O cell models a saturated cold-storage device (~400 ms per
    // request at the default 2.53 GHz) so each transfer spans ~99 jiffies.
    if (load == EngineLoad::kIoHeavy) cfg.costs.disk_latency = Cycles{1'000'000'000};
    kernel::Kernel k(cfg,
                     std::make_unique<kernel::O1PriorityScheduler>(cfg.hz));
    core::TickMeter tick;
    core::TscMeter tsc;
    core::PaisMeter pais;
    k.add_hook(&tick);
    k.add_hook(&tsc);
    k.add_hook(&pais);
    k.spawn({name, exec::make_step_list(name, steps()), Nice{0}, true});
    if (load == EngineLoad::kNicFlood) k.start_nic_flood(bench::kFloodPacketsPerSecond);
    k.run();
    benchmark::DoNotOptimize(tsc.grand_total().v);
    virt_mcycles += static_cast<double>(k.now().v) / 1e6;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["virt_mcycles_per_sec"] =
      benchmark::Counter(virt_mcycles, benchmark::Counter::kIsRate);
}

void BM_EngineCell_idle_daemon_event(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/true, EngineLoad::kIdleDaemon);
}
BENCHMARK(BM_EngineCell_idle_daemon_event)->Unit(benchmark::kMillisecond);

void BM_EngineCell_idle_daemon_slice(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/false, EngineLoad::kIdleDaemon);
}
BENCHMARK(BM_EngineCell_idle_daemon_slice)->Unit(benchmark::kMillisecond);

void BM_EngineCell_io_heavy_event(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/true, EngineLoad::kIoHeavy);
}
BENCHMARK(BM_EngineCell_io_heavy_event)->Unit(benchmark::kMillisecond);

void BM_EngineCell_io_heavy_slice(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/false, EngineLoad::kIoHeavy);
}
BENCHMARK(BM_EngineCell_io_heavy_slice)->Unit(benchmark::kMillisecond);

void BM_EngineCell_nic_flood_event(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/true, EngineLoad::kNicFlood);
}
BENCHMARK(BM_EngineCell_nic_flood_event)->Unit(benchmark::kMillisecond);

void BM_EngineCell_nic_flood_slice(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/false, EngineLoad::kNicFlood);
}
BENCHMARK(BM_EngineCell_nic_flood_slice)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
