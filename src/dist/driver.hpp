// The mtr_sweep driver: flag/environment parsing and the run loop that
// owns every invocation policy. Sweep bodies only queue grids
// (report/sweep.hpp); the driver plans each queued grid — the --engine
// override, the invocation-global cell numbering, shard ownership and
// resume skipping, the --dry-run plan, --trace-dir and --metrics — then
// runs them all in one pool, streams each cell into its sweep's
// <out-dir>/<sweep>.{csv,jsonl} sinks, wires progress and arms the fault
// schedule. Lives in the dist layer so the report substrate stays free of
// sharding/resume policy.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "dist/fault.hpp"
#include "dist/flags.hpp"
#include "dist/shard.hpp"
#include "report/sweep.hpp"

namespace mtr::dist {

struct SweepOptions {
  bool help = false;      // --help: print usage and exit 0
  bool list = false;      // --list: print the registry and exit
  bool all = false;       // --all: run every registered sweep
  bool quiet = false;     // --quiet: suppress the ASCII figure rendering
  bool progress = true;   // --no-progress / MTR_BENCH_PROGRESS=0
  bool dry_run = false;   // --dry-run: print the cell plan, execute nothing
  bool resume = false;    // --resume: skip cells already complete on disk
  ShardSpec shard;        // --shard I/N; default 0/1 = everything
  std::vector<std::string> sweeps;  // positional sweep names

  std::string out_dir;     // --out-dir: <dir>/<sweep>.{csv,jsonl}
  std::string trace_dir;   // --trace-dir: per-cell Perfetto trace JSONs
  std::string metrics_path;  // --metrics: schema-versioned metrics.json
  std::string status_file;   // --status-file: atomic heartbeat JSON

  double scale = 0.25;
  std::vector<std::uint64_t> seeds;
  unsigned threads = 0;
  /// --engine event|slice: force the kernel step loop across every cell.
  /// Unset leaves the KernelConfig default. Not a grid axis: records carry
  /// no engine column, so runs differing only here are byte-comparable.
  std::optional<bool> event_driven;

  /// --fault-inject SPEC (or MTR_FAULT_INJECT, which the flag overrides):
  /// deterministic crash schedule for chaos testing — see dist/fault.hpp.
  /// The env override exists so mtr_fleet can arm faults in one targeted
  /// shard subprocess without the spec leaking into restarted attempts.
  FaultPlan fault;
};

/// --scale, --seeds, --first-seed, --threads and --engine bound to `o`,
/// with the MTR_BENCH_* defaults of the first, second and fourth. mtr_fleet
/// checks the flags it forwards with this table.
FlagTable workload_flags(SweepOptions& o);

/// Options with every default resolved from the environment
/// (MTR_BENCH_SCALE, MTR_BENCH_SEEDS, MTR_BENCH_THREADS,
/// MTR_BENCH_PROGRESS, MTR_FAULT_INJECT).
SweepOptions default_sweep_options();

/// Parses argv on top of default_sweep_options(); throws UsageError on
/// malformed input. Numeric flags are strict: trailing garbage
/// ("--scale 2x", "--threads 8q"), NaN/±inf and out-of-range integers are
/// rejected.
SweepOptions parse_sweep_args(int argc, const char* const* argv);

/// Runs the selected sweeps: plans their grids (shard/resume gating,
/// printed to `out` under --dry-run), opens the --out-dir sinks (creating
/// the directories), wires progress (to `err`), streams results, renders
/// figures to `out`. Returns a process exit code (0 ok, 2 usage/selection
/// error).
int run_sweeps(const report::SweepRegistry& registry, const SweepOptions& options,
               std::ostream& out, std::ostream& err);

/// The whole CLI: parse + run + error reporting. `main` forwards here.
/// Usage errors exit 2, runtime failures 1.
int sweep_main(const report::SweepRegistry& registry, int argc,
               const char* const* argv);

}  // namespace mtr::dist
