// mtr_probe — the benchmark's layer-probe harness. Each probe times one
// layer of metertrust from outside, through public functions only, on
// inputs taken from the workload being measured: its RAM shape and scale,
// its own grid cells, its own CSV/JSONL records and its metrics.json.
//
//   mtr_probe --scale 0.06 --seed 42 --ram-frames 16384 --reclaim-batch 256
//             --sweeps fig07,fig08 --csv a.csv --jsonl a.jsonl
//             --metrics metrics.json --tmp-dir DIR
//
// Prints one JSON line per probe: {"probe", "start_s", "dur_s", "metrics"}.
// Times are host time; every per-operation figure is the median of several
// timed batches.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "attacks/scheduling_attack.hpp"
#include "bench/attack_roster.hpp"
#include "bench/sweeps.hpp"
#include "common/rng.hpp"
#include "core/integrity.hpp"
#include "core/meters.hpp"
#include "dist/json.hpp"
#include "dist/metrics.hpp"
#include "dist/records.hpp"
#include "exec/program_base.hpp"
#include "kernel/cfs_scheduler.hpp"
#include "kernel/event_queue.hpp"
#include "kernel/o1_scheduler.hpp"
#include "mm/memory_manager.hpp"
#include "report/result_sink.hpp"
#include "report/sweep.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics.hpp"

namespace {

using namespace mtr;
using Clock = std::chrono::steady_clock;

/// Results of probed calls fold in here so no timed call is optimized away.
volatile std::uint64_t g_sink = 0;

constexpr int kSamples = 7;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Median seconds of `samples` timed calls of `batch`.
double median_seconds(int samples, const std::function<void()>& batch) {
  std::vector<double> s;
  for (int i = 0; i < samples; ++i) {
    const auto t0 = Clock::now();
    batch();
    s.push_back(seconds_since(t0));
  }
  return median(std::move(s));
}

struct Options {
  double scale = 0.01;
  std::uint64_t seed = 42;
  std::uint32_t ram_frames = 16 * 1024;
  std::uint32_t reclaim_batch = 256;
  std::vector<std::string> sweeps;
  std::vector<std::string> csv;
  std::vector<std::string> jsonl;
  std::string metrics;
  std::string tmp_dir = ".";
};

std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  for (std::string item; std::getline(ss, item, ',');)
    if (!item.empty()) out.push_back(item);
  return out;
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--scale") o.scale = std::stod(value);
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--ram-frames") o.ram_frames = static_cast<std::uint32_t>(std::stoul(value));
    else if (flag == "--reclaim-batch") o.reclaim_batch = static_cast<std::uint32_t>(std::stoul(value));
    else if (flag == "--sweeps") o.sweeps = split_commas(value);
    else if (flag == "--csv") o.csv.push_back(value);
    else if (flag == "--jsonl") o.jsonl.push_back(value);
    else if (flag == "--metrics") o.metrics = value;
    else if (flag == "--tmp-dir") o.tmp_dir = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  return o;
}

using Metrics = std::vector<std::pair<std::string, double>>;

/// Runs one probe and prints its JSON line with the span it covered.
void run_probe(const char* name, Clock::time_point origin,
               const std::function<Metrics()>& probe) {
  const auto t0 = Clock::now();
  const Metrics m = probe();
  const double dur = seconds_since(t0);
  std::ostringstream os;
  os.precision(17);
  os << "{\"probe\":\"" << name << "\",\"start_s\":"
     << std::chrono::duration<double>(t0 - origin).count() << ",\"dur_s\":" << dur
     << ",\"metrics\":{";
  for (std::size_t i = 0; i < m.size(); ++i)
    os << (i ? "," : "") << '"' << m[i].first << "\":" << m[i].second;
  os << "}}\n";
  std::cout << os.str() << std::flush;
}

// --- kernel ----------------------------------------------------------------

/// EventQueue push+pop pair at a steady queue depth: pop the earliest event
/// and re-arm it later, as a periodic device does.
double eventq_pair_ns(std::size_t depth, std::uint64_t seed) {
  kernel::EventQueue q;
  SplitMix64 rng(seed);
  for (std::size_t i = 0; i < depth; ++i)
    q.push(Cycles{rng.next() % 10'000'000},
           static_cast<kernel::EventKind>(i % 3));
  constexpr std::size_t kOps = 200'000;
  const double s = median_seconds(kSamples, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kOps; ++i) {
      const kernel::Event e = q.pop();
      acc += e.seq;
      q.push(Cycles{e.at.v + 1 + rng.next() % 10'000'000}, e.kind, e.pid);
    }
    g_sink = g_sink + acc;
  });
  return s * 1e9 / kOps;
}

/// pick_next + enqueue with 64 runnable processes across the nice range.
template <typename SchedulerT, typename Arg>
double sched_pair_ns(Arg arg) {
  SchedulerT sched(arg);
  std::vector<std::unique_ptr<kernel::Process>> procs;
  for (int i = 0; i < 64; ++i) {
    procs.push_back(std::make_unique<kernel::Process>(
        Pid{i + 1}, Tgid{i + 1}, Pid{}, "p", exec::make_step_list("p", {})(),
        Nice{static_cast<std::int8_t>(i % 40 - 20)}, static_cast<std::uint64_t>(i)));
    procs.back()->state = kernel::ProcState::kReady;
    sched.enqueue(*procs.back(), Cycles{0});
  }
  constexpr std::size_t kOps = 200'000;
  const double s = median_seconds(kSamples, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      kernel::Process* p = sched.pick_next(Cycles{i});
      g_sink = g_sink + static_cast<std::uint64_t>(p->pid.v);
      p->state = kernel::ProcState::kReady;
      sched.enqueue(*p, Cycles{i});
    }
  });
  return s * 1e9 / kOps;
}

/// The scheduling attack's Fork program run alone at nice -20: how many
/// processes one run creates, and what tearing its Simulation down costs.
Metrics fork_run(double scale) {
  std::vector<double> teardown;
  std::size_t procs = 0;
  for (int i = 0; i < 3; ++i) {
    auto s = std::make_unique<sim::Simulation>();
    const Pid pid = attacks::SchedulingAttack::spawn_standalone(
        *s, bench::fork_params(scale, -20));
    s->run_until_exit(pid);
    procs = s->kernel().all_pids().size();
    const auto t0 = Clock::now();
    s.reset();
    teardown.push_back(seconds_since(t0));
  }
  return {{"kernel.procs_per_run", static_cast<double>(procs)},
          {"kernel.teardown_ms", median(teardown) * 1e3}};
}

// --- mm --------------------------------------------------------------------

/// destroy_space of a Fork child's space on a machine with `frames` of RAM,
/// an eighth of it held by a long-lived victim. A Fork child runs a no-op
/// program, so its space dies with an empty resident set.
double destroy_space_us(std::uint32_t frames) {
  mm::MemoryManager mm(frames);
  const Tgid victim{1};
  mm.create_space(victim);
  for (std::uint64_t p = 0; p < frames / 8; ++p) mm.touch(victim, PageId{p});
  constexpr int kSpaces = 200;
  int next = 2;
  std::vector<double> samples;
  for (int i = 0; i < kSamples; ++i) {
    const int first = next;
    next += kSpaces;
    for (int t = first; t < next; ++t) mm.create_space(Tgid{t});
    // Only the destroys are timed; creating the spaces is set-up.
    const auto t0 = Clock::now();
    for (int t = first; t < next; ++t) mm.destroy_space(Tgid{t});
    samples.push_back(seconds_since(t0));
    g_sink = g_sink + mm.frames_used();
  }
  return median(std::move(samples)) * 1e6 / kSpaces;
}

/// MemoryManager::touch on a resident page and on a page that must fault in
/// under reclaim pressure: a hog cycling through 1.5x RAM (Fig. 11's hog).
Metrics touch_ns(std::uint32_t frames, std::uint32_t reclaim_batch) {
  mm::MemoryManager mm(frames, reclaim_batch);
  const Tgid hot{1}, hog{2};
  mm.create_space(hot);
  mm.create_space(hog);
  constexpr std::uint64_t kHotPages = 64;
  for (std::uint64_t p = 0; p < kHotPages; ++p) mm.touch(hot, PageId{p});
  constexpr std::size_t kHitOps = 500'000;
  const double hit = median_seconds(kSamples, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kHitOps; ++i)
      acc += static_cast<std::uint64_t>(mm.touch(hot, PageId{i % kHotPages}).fault);
    g_sink = g_sink + acc;
  });

  const std::uint64_t hog_pages = frames + frames / 2;
  std::uint64_t page = 0;
  for (; page < hog_pages; ++page) mm.touch(hog, PageId{page});
  const std::size_t fault_ops = frames;
  const double fault = median_seconds(kSamples, [&] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < fault_ops; ++i, ++page)
      acc += static_cast<std::uint64_t>(mm.touch(hog, PageId{page % hog_pages}).fault);
    g_sink = g_sink + acc;
  });
  return {{"mm.touch_hit_ns", hit * 1e9 / kHitOps},
          {"mm.touch_fault_ns", fault * 1e9 / static_cast<double>(fault_ops)}};
}

// --- core ------------------------------------------------------------------

/// ExecutionIntegrityMonitor::on_step_begin across 64 live threads.
double integrity_step_ns() {
  core::ExecutionIntegrityMonitor mon;
  constexpr std::size_t kOps = 100'000;
  const double s = median_seconds(kSamples, [&] {
    for (std::size_t i = 0; i < kOps; ++i) {
      const int id = 1 + static_cast<int>(i % 64);
      mon.on_step_begin(Cycles{i}, Pid{id}, Tgid{id}, "compute", "loop");
    }
    g_sink = g_sink + mon.step_count(Tgid{1});
  });
  return s * 1e9 / kOps;
}

/// on_cycles of a meter, charges spread over 64 processes and four kinds.
template <typename MeterT>
double meter_cycles_ns(MeterT& meter) {
  constexpr kernel::WorkKind kKinds[] = {
      kernel::WorkKind::kUserCompute, kernel::WorkKind::kSyscallBody,
      kernel::WorkKind::kDeviceIrq, kernel::WorkKind::kContextSwitch};
  constexpr std::size_t kOps = 1'000'000;
  return median_seconds(kSamples, [&] {
           for (std::size_t i = 0; i < kOps; ++i) {
             const int id = 1 + static_cast<int>(i % 64);
             const kernel::WorkKind kind = kKinds[i % 4];
             meter.on_cycles(Cycles{i * 100}, Pid{id}, Tgid{id}, kind, Cycles{100},
                             kind == kernel::WorkKind::kDeviceIrq ? Pid{} : Pid{id});
           }
         }) *
         1e9 / kOps;
}

Metrics meters_ns() {
  core::TscMeter tsc;
  core::PaisMeter pais;
  for (int id = 1; id <= 64; ++id)
    pais.on_process_created(Cycles{0}, Pid{id}, Tgid{id}, Pid{}, "p");
  const double tsc_ns = meter_cycles_ns(tsc);
  const double pais_ns = meter_cycles_ns(pais);
  g_sink = g_sink + tsc.grand_total().v + pais.system_cycles().v;
  return {{"core.meter.tsc_ns", tsc_ns}, {"core.meter.pais_ns", pais_ns}};
}

// --- report ----------------------------------------------------------------

/// Keeps every cell a sweep emits, for the encode probe.
class CaptureSink final : public report::ResultSink {
 public:
  void write_cell(const std::string& sweep, const core::CellStats& cell) override {
    cells.emplace_back(sweep, cell);
  }
  std::vector<std::pair<std::string, core::CellStats>> cells;
};

/// CsvSink/JsonlSink encode throughput on the workload's own grid cells,
/// produced by running its sweeps at `scale` with one seed.
Metrics sink_encode_mbps(const Options& o, double scale) {
  report::SweepRegistry registry;
  bench::register_all_sweeps(registry);
  CaptureSink capture;
  std::ostringstream rendering;
  std::size_t cell_cursor = 0;
  report::SweepContext ctx;
  ctx.scale = scale;
  ctx.seeds = {o.seed};
  ctx.threads = 1;
  ctx.sink = &capture;
  ctx.out = &rendering;
  ctx.cell_cursor = &cell_cursor;
  ctx.partial = true;  // records only; no figure rendering
  for (const std::string& name : o.sweeps) {
    const report::SweepSpec* spec = registry.find(name);
    if (spec == nullptr) throw std::runtime_error("unknown sweep " + name);
    spec->run(ctx);
  }
  if (capture.cells.empty()) throw std::runtime_error("sweeps emitted no cells");

  const auto encode = [&](auto make_sink) {
    std::size_t bytes = 0;
    const double s = median_seconds(kSamples, [&] {
      std::ostringstream os;
      auto sink = make_sink(os);
      for (const auto& [sweep, cell] : capture.cells) sink.write_cell(sweep, cell);
      bytes = os.str().size();
    });
    return static_cast<double>(bytes) / s / 1e6;
  };
  return {{"report.csv_encode_mbps",
           encode([](std::ostream& os) { return report::CsvSink(os); })},
          {"report.jsonl_encode_mbps",
           encode([](std::ostream& os) { return report::JsonlSink(os); })}};
}

// --- dist ------------------------------------------------------------------

double file_bytes(const std::vector<std::string>& paths) {
  double total = 0;
  for (const std::string& p : paths)
    total += static_cast<double>(std::filesystem::file_size(p));
  return total;
}

/// scan_csv/scan_jsonl throughput over the workload's own output files.
Metrics scan_mbps(const Options& o) {
  const auto scan = [](const std::vector<std::string>& paths, auto scanner) {
    const double bytes = file_bytes(paths);
    const int samples = bytes > 8e6 ? 3 : kSamples;
    const double s = median_seconds(samples, [&] {
      for (const std::string& p : paths) {
        const dist::FileScan f = scanner(p);
        if (!f.clean) throw std::runtime_error(p + ": " + f.tail_error);
        g_sink = g_sink + f.blocks.size();
      }
    });
    return bytes / s / 1e6;
  };
  return {{"dist.scan_csv_mbps", scan(o.csv, dist::scan_csv)},
          {"dist.scan_jsonl_mbps", scan(o.jsonl, dist::scan_jsonl)}};
}

/// parse_json_line vs json::parse_document on up to 2000 of the workload's
/// JSONL lines, taken at an even stride.
Metrics json_line_ns(const Options& o) {
  std::vector<std::string> all;
  for (const std::string& p : o.jsonl) {
    std::ifstream in(p);
    for (std::string line; std::getline(in, line);) all.push_back(std::move(line));
  }
  if (all.empty()) throw std::runtime_error("no JSONL lines to parse");
  const std::size_t stride = std::max<std::size_t>(1, all.size() / 2000);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < all.size(); i += stride) lines.push_back(all[i]);
  const double n = static_cast<double>(lines.size());

  const double flat = median_seconds(kSamples, [&] {
    std::map<std::string, std::string> fields;
    for (const std::string& l : lines) {
      fields.clear();
      if (!dist::parse_json_line(l, fields)) throw std::runtime_error("bad line");
      g_sink = g_sink + fields.size();
    }
  });
  const double doc = median_seconds(kSamples, [&] {
    for (const std::string& l : lines)
      g_sink = g_sink + dist::json::parse_document(l).fields.size();
  });
  return {{"dist.json_line_ns.flat", flat * 1e9 / n},
          {"dist.json_line_ns.doc", doc * 1e9 / n}};
}

// --- trace -----------------------------------------------------------------

/// write_metrics_json + atomic rename of the workload's metrics document.
double metrics_publish_ms(const Options& o) {
  const dist::MetricsFile m = dist::read_metrics_json(o.metrics);
  const std::filesystem::path dst =
      std::filesystem::path(o.tmp_dir) / "probe-metrics.json";
  std::filesystem::path tmp = dst;
  tmp += ".tmp";
  return median_seconds(9, [&] {
           {
             std::ofstream os(tmp, std::ios::trunc);
             trace::write_metrics_json(os, m.sweeps, m.shards);
             if (!os) throw std::runtime_error("cannot write " + tmp.string());
           }
           std::filesystem::rename(tmp, dst);
         }) *
         1e3;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options o = parse_args(argc, argv);
    const auto origin = Clock::now();
    run_probe("kernel.eventq", origin, [&] {
      return Metrics{{"kernel.eventq.pair_ns.d3", eventq_pair_ns(3, o.seed)},
                     {"kernel.eventq.pair_ns.d64", eventq_pair_ns(64, o.seed)}};
    });
    run_probe("kernel.sched", origin, [] {
      return Metrics{
          {"kernel.sched.o1_pair_ns", sched_pair_ns<kernel::O1PriorityScheduler>(TimerHz{})},
          {"kernel.sched.cfs_pair_ns", sched_pair_ns<kernel::CfsScheduler>(CpuHz{})}};
    });
    run_probe("kernel.fork_run", origin, [&] { return fork_run(o.scale); });
    run_probe("mm.destroy_space", origin, [] {
      const double small = destroy_space_us(16 * 1024);
      const double large = destroy_space_us(256 * 1024);
      return Metrics{{"mm.destroy_space_us.ram16k", small},
                     {"mm.destroy_space_us.ram256k", large},
                     {"mm.destroy_space_ratio", large / small}};
    });
    run_probe("mm.touch", origin,
              [&] { return touch_ns(o.ram_frames, o.reclaim_batch); });
    run_probe("core.integrity", origin, [] {
      return Metrics{{"core.integrity.step_ns", integrity_step_ns()}};
    });
    run_probe("core.meter", origin, [] { return meters_ns(); });
    run_probe("report.encode", origin,
              [&] { return sink_encode_mbps(o, std::min(o.scale, 0.002)); });
    run_probe("dist.scan", origin, [&] { return scan_mbps(o); });
    run_probe("dist.json_line", origin, [&] { return json_line_ns(o); });
    run_probe("trace.metrics_publish", origin, [&] {
      return Metrics{{"trace.metrics_publish_ms", metrics_publish_ms(o)}};
    });
  } catch (const std::exception& e) {
    std::cerr << "mtr_probe: " << e.what() << '\n';
    return 1;
  }
  return 0;
}
