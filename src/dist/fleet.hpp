// The mtr_fleet shard supervisor: launches `mtr_sweep --shard I/N`
// subprocesses, watches their status-file heartbeats, kills hung shards,
// restarts failed ones under --resume with capped exponential backoff, and
// — once every shard is done — verifies and merges the shard outputs with
// the in-process mtr_merge machinery. The headline guarantee, proven by
// the chaos tests and CI job: a fleet run under an adversarial fault
// schedule merges byte-identical to a clean single-process run.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace mtr::dist {

struct FleetOptions {
  bool help = false;           // --help: print usage and exit 0
  bool all = false;            // --all: run every registered sweep
  bool quiet = false;          // --quiet: forwarded to the shards
  bool allow_partial = false;  // --allow-partial: merge what completed,
                               // write a gap manifest, still exit 0
  bool metrics = true;         // --no-metrics disables the metrics fold
  unsigned shards = 4;         // --shards N: fleet width
  unsigned max_retries = 2;    // --max-retries R: restarts per shard
  std::uint64_t backoff_base_ms = 250;  // --backoff-base MS
  double heartbeat_timeout = 30.0;      // --heartbeat-timeout S (0 = off)
  double wall_timeout = 0.0;            // --wall-timeout S (0 = off)
  std::uint64_t poll_ms = 50;           // supervisor poll interval
  std::uint64_t fleet_seed = 0;         // --fleet-seed: backoff jitter seed
  std::string out_dir;                  // --out-dir DIR (required)
  std::string sweep_bin;  // --sweep-bin PATH; default: mtr_sweep next to
                          // the running executable
  std::vector<std::string> sweeps;  // positional sweep names

  /// --fault-inject I:SPEC (repeatable): arm SPEC in shard I's FIRST
  /// attempt via MTR_FAULT_INJECT. Restarted attempts run clean — the
  /// point is proving the recovery path, not looping the fault forever.
  std::vector<std::pair<unsigned, std::string>> faults;

  /// mtr_sweep's workload flags (--scale, --seeds, --first-seed, --threads,
  /// --engine) exactly as typed, in order. They are appended unchanged to
  /// the preflight dry run and to every shard's argv; unset ones fall back
  /// to the shard's own environment defaults.
  std::vector<std::string> sweep_args;
};

/// How one shard's story ended.
struct ShardOutcome {
  unsigned shard = 0;
  bool succeeded = false;
  unsigned attempts = 0;       // attempts actually launched
  int exit_code = -1;          // last exit code (-1 if signaled)
  int term_signal = 0;         // last terminating signal (0 if exited)
  bool hung = false;           // last failure was a supervisor kill
  double last_heartbeat_age = -1.0;  // seconds at last observation; <0 none
  std::string log_path;        // stderr/stdout log of the last attempt
};

struct FleetReport {
  std::vector<ShardOutcome> shards;
  std::uint64_t total_cells = 0;
  bool merged = false;
  std::vector<std::uint64_t> missing_cells;  // --allow-partial gaps
};

/// Deterministic restart delay: capped exponential backoff on `attempt`
/// (1-based retry ordinal) plus SplitMix64 jitter keyed on
/// (fleet_seed, shard, attempt) — reproducible across runs, decorrelated
/// across shards. Pure so the tests can pin it.
std::uint64_t backoff_delay_ms(std::uint64_t base_ms, unsigned attempt,
                               std::uint64_t fleet_seed, unsigned shard);

FleetOptions default_fleet_options();

/// Parses argv; throws UsageError on malformed input, including workload
/// flag values mtr_sweep would refuse.
FleetOptions parse_fleet_args(int argc, const char* const* argv);

/// Runs the fleet: preflight (resolve sweep names, count cells), spawn
/// shards, supervise, merge. Returns a process exit code: 0 all shards
/// succeeded and the merge verified (or --allow-partial and the partial
/// merge + gap manifest were written), 1 shard or merge failure. Throws
/// UsageError on an invalid option combination (fleet_main exits 2).
/// `report`, when non-null, receives the machine-inspectable outcome.
int run_fleet(const FleetOptions& options, std::ostream& out,
              std::ostream& err, FleetReport* report = nullptr);

/// The whole CLI: parse + run + error reporting. `main` forwards here.
/// Usage errors exit 2.
int fleet_main(int argc, const char* const* argv);

}  // namespace mtr::dist
