// google-benchmark microbenches for the substrate itself: crypto
// throughput, simulator event rate, scheduler pick cost, meter hook
// overhead, and end-to-end sweep-cell rates. These are engineering
// benchmarks (how fast is the simulator), not paper reproductions.
//
// The BM_SweepCell_* family is the tracked perf baseline: each iteration
// runs one BatchRunner-equivalent cell (one run_experiment) of the
// fig07/fig08 scheduling-attack sweeps at a fixed scale, so successive
// commits can be compared via bench/perf_baseline.py and BENCH_sim.json.
// BM_EngineCell_*, BM_DestroySpace_*, BM_IntegrityStep_* and
// BM_Sha256Block_* are tracked alongside, each as a pair whose ratio CI
// pins.
#include <benchmark/benchmark.h>

#include "attacks/scheduling_attack.hpp"
#include "bench/attack_roster.hpp"
#include "core/experiment.hpp"
#include "core/integrity.hpp"
#include "core/meters.hpp"
#include "crypto/md5.hpp"
#include "crypto/sha256.hpp"
#include "kernel/cfs_scheduler.hpp"
#include "exec/program_base.hpp"
#include "kernel/kernel.hpp"
#include "kernel/o1_scheduler.hpp"
#include "mm/memory_manager.hpp"
#include "sim/simulation.hpp"
#include "workloads/workloads.hpp"

namespace {

using namespace mtr;

void BM_Md5Throughput(benchmark::State& state) {
  const std::string msg(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::md5(msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Md5Throughput)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Sha256Throughput(benchmark::State& state) {
  const std::string msg(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Throughput)->Arg(64)->Arg(16384);

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

/// Virtual seconds simulated per real second: boot a machine, run one
/// Whetstone through the shell, measure wall cost per simulated run.
void BM_SimulateWhetstone(benchmark::State& state) {
  const double scale = 0.01;
  for (auto _ : state) {
    sim::Simulation s;
    const auto info = workloads::make_workload(workloads::WorkloadKind::kWhetstone,
                                               {scale});
    const Pid pid = s.launch(info.image);
    s.run_until_exit(pid);
    benchmark::DoNotOptimize(s.usage_of(pid).ticks.total().v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateWhetstone);

/// Same run with the full meter stack attached: the hook overhead.
void BM_SimulateWhetstoneWithMeters(benchmark::State& state) {
  const double scale = 0.01;
  for (auto _ : state) {
    sim::Simulation s;
    core::TickMeter tick;
    core::TscMeter tsc;
    core::PaisMeter pais;
    core::SourceIntegrityMonitor source;
    core::ExecutionIntegrityMonitor execution;
    s.kernel().add_hook(&tick);
    s.kernel().add_hook(&tsc);
    s.kernel().add_hook(&pais);
    s.kernel().add_hook(&source);
    s.kernel().add_hook(&execution);
    const auto info = workloads::make_workload(workloads::WorkloadKind::kWhetstone,
                                               {scale});
    const Pid pid = s.launch(info.image);
    s.run_until_exit(pid);
    benchmark::DoNotOptimize(tsc.usage(s.kernel().process(pid).tgid).total().v);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateWhetstoneWithMeters);

/// Scheduler pick-next cost under load.
template <typename SchedulerT, typename... Args>
void scheduler_pick_bench(benchmark::State& state, Args... args) {
  SchedulerT sched(args...);
  std::vector<std::unique_ptr<kernel::Process>> procs;
  for (int i = 0; i < 64; ++i) {
    procs.push_back(std::make_unique<kernel::Process>(
        Pid{i + 1}, Tgid{i + 1}, Pid{}, "p",
        exec::make_step_list("p", {})(), Nice{static_cast<std::int8_t>(i % 40 - 20)},
        i));
    procs.back()->state = kernel::ProcState::kReady;
    sched.enqueue(*procs.back(), Cycles{0});
  }
  for (auto _ : state) {
    kernel::Process* p = sched.pick_next(Cycles{0});
    benchmark::DoNotOptimize(p);
    p->state = kernel::ProcState::kReady;
    sched.enqueue(*p, Cycles{0});
  }
}

void BM_O1PickNext(benchmark::State& state) {
  scheduler_pick_bench<kernel::O1PriorityScheduler>(state, TimerHz{});
}
BENCHMARK(BM_O1PickNext);

void BM_CfsPickNext(benchmark::State& state) {
  scheduler_pick_bench<kernel::CfsScheduler>(state, CpuHz{});
}
BENCHMARK(BM_CfsPickNext);

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
// Engine benches — event-driven calendar queue vs slice-stepped reference
// loop on the workload classes where the queue pays off: mostly-idle and
// I/O-bound cells, where the slice loop burns one iteration (and one hook
// round) per jiffy while the event loop leaps whole sleep/transfer windows
// in O(1). The BM_EngineCell_* pairs are tracked in BENCH_sim.json, and CI
// gates the slice/event wall-time ratio (hardware-independent) via
// perf_baseline.py --ratio-floor.
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

void engine_cell_bench(benchmark::State& state, bool event_driven, bool io) {
  double virt_mcycles = 0.0;
  for (auto _ : state) {
    kernel::KernelConfig cfg;
    cfg.seed = 1234;
    cfg.event_driven = event_driven;
    // The I/O cell models a saturated cold-storage device (~400 ms per
    // request at the default 2.53 GHz) so each transfer spans ~99 jiffies.
    if (io) cfg.costs.disk_latency = Cycles{1'000'000'000};
    kernel::Kernel k(cfg,
                     std::make_unique<kernel::O1PriorityScheduler>(cfg.hz));
    core::TickMeter tick;
    core::TscMeter tsc;
    core::PaisMeter pais;
    k.add_hook(&tick);
    k.add_hook(&tsc);
    k.add_hook(&pais);
    k.spawn({io ? "bulk-reader" : "idle-daemon",
             exec::make_step_list(io ? "bulk-reader" : "idle-daemon",
                                  io ? io_heavy_steps() : idle_daemon_steps()),
             Nice{0}, true});
    k.run();
    benchmark::DoNotOptimize(tsc.grand_total().v);
    virt_mcycles += static_cast<double>(k.now().v) / 1e6;
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["virt_mcycles_per_sec"] =
      benchmark::Counter(virt_mcycles, benchmark::Counter::kIsRate);
}

void BM_EngineCell_idle_daemon_event(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/true, /*io=*/false);
}
BENCHMARK(BM_EngineCell_idle_daemon_event)->Unit(benchmark::kMillisecond);

void BM_EngineCell_idle_daemon_slice(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/false, /*io=*/false);
}
BENCHMARK(BM_EngineCell_idle_daemon_slice)->Unit(benchmark::kMillisecond);

void BM_EngineCell_io_heavy_event(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/true, /*io=*/true);
}
BENCHMARK(BM_EngineCell_io_heavy_event)->Unit(benchmark::kMillisecond);

void BM_EngineCell_io_heavy_slice(benchmark::State& state) {
  engine_cell_bench(state, /*event_driven=*/false, /*io=*/true);
}
BENCHMARK(BM_EngineCell_io_heavy_slice)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
