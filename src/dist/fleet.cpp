#include "dist/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/format.hpp"
#include "common/parse.hpp"
#include "dist/driver.hpp"
#include "dist/fault.hpp"
#include "dist/flags.hpp"
#include "dist/merge.hpp"
#include "dist/status.hpp"

namespace mtr::dist {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

constexpr const char* kUsage =
    "usage: mtr_fleet --out-dir DIR [options] [sweep...]\n"
    "\n"
    "Launches N `mtr_sweep --shard I/N` subprocesses, watches their\n"
    "status-file heartbeats, kills hung shards, restarts failed ones under\n"
    "--resume with capped exponential backoff, and — once every shard\n"
    "completes — stitches the shard outputs with the mtr_merge machinery.\n"
    "Under any fault schedule the merged CSV/JSONL come out byte-identical\n"
    "to a clean single-process run of the same grid.\n"
    "\n"
    "  --out-dir DIR         fleet workspace: shard<i>/ per shard, merged/\n"
    "                        for the stitched outputs (required)\n"
    "  --all                 run every registered sweep\n"
    "  --shards N            fleet width (default 4)\n"
    "  --max-retries R       restarts per shard before giving up (default 2)\n"
    "  --backoff-base MS     base restart delay: retry k waits about\n"
    "                        MS*2^(k-1) plus deterministic jitter, capped\n"
    "                        at 30s (default 250)\n"
    "  --fleet-seed S        seed for the backoff jitter (default 0)\n"
    "  --heartbeat-timeout S kill a shard whose status file goes S seconds\n"
    "                        without an update (default 30; 0 disables)\n"
    "  --wall-timeout S      kill an attempt running longer than S seconds\n"
    "                        (default 0 = disabled)\n"
    "  --poll-ms MS          supervisor poll interval (default 50)\n"
    "  --allow-partial       when a shard exhausts its retries: merge the\n"
    "                        completed shards with --allow-gaps, write a\n"
    "                        machine-readable merged/gaps.json manifest,\n"
    "                        and exit 0\n"
    "  --no-metrics          skip per-shard --metrics and the metrics fold\n"
    "  --fault-inject I:SPEC arm fault SPEC (mtr_sweep --fault-inject\n"
    "                        grammar: clauses in its order, each at most\n"
    "                        once, numbers without leading zeros) in\n"
    "                        shard I's FIRST attempt via\n"
    "                        MTR_FAULT_INJECT; repeatable, one spec per\n"
    "                        shard; restarted attempts run clean\n"
    "  --sweep-bin PATH      mtr_sweep binary (default: next to mtr_fleet)\n"
    "  --scale X / --seeds N / --first-seed S / --threads T / --engine E\n"
    "                        checked as mtr_sweep checks them, then passed\n"
    "                        verbatim to the preflight and every shard\n"
    "  --quiet               only failures and retries on stderr\n"
    "  --help                print this message\n"
    "\n"
    "Exit codes: 0 fleet merged and verified (or --allow-partial wrote the\n"
    "gap manifest); 1 a shard exhausted its retries or the merge failed;\n"
    "2 usage error.\n";

std::string fmt_age(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.1f", v);
  return buf;
}

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(to - from)
      .count();
}

/// fork+exec with stdout/stderr redirected into `log_path`. `fault_env`,
/// when non-null, becomes the child's MTR_FAULT_INJECT; otherwise any
/// inherited value is scrubbed — a fault armed in the supervisor's own
/// environment must not leak into every shard and every retry.
pid_t spawn_child(const std::vector<std::string>& args,
                  const std::string& log_path, const char* fault_env) {
  const pid_t pid = ::fork();
  if (pid < 0)
    throw std::runtime_error("fork failed: " + std::string(std::strerror(errno)));
  if (pid == 0) {
    if (fault_env != nullptr)
      ::setenv("MTR_FAULT_INJECT", fault_env, 1);
    else
      ::unsetenv("MTR_FAULT_INJECT");
    const int fd =
        ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      if (fd > 2) ::close(fd);
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    ::execv(args[0].c_str(), argv.data());
    ::_exit(127);
  }
  return pid;
}

/// Runs a preflight subprocess to completion, capturing its stdout+stderr.
struct ExecResult {
  int exit_code = -1;
  std::string output;
};

ExecResult run_capture(const std::vector<std::string>& args,
                       const std::string& capture_path) {
  const pid_t pid = spawn_child(args, capture_path, nullptr);
  int st = 0;
  while (::waitpid(pid, &st, 0) < 0 && errno == EINTR) {}
  ExecResult r;
  r.exit_code = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
  r.output = read_file(capture_path, "preflight capture");
  return r;
}

/// The per-shard supervision record.
struct ShardState {
  unsigned shard = 0;
  pid_t pid = -1;  // -1 = not currently running
  unsigned attempts = 0;
  bool done = false;
  bool failed = false;
  bool hung = false;     // last failure was a supervisor kill
  int exit_code = -1;    // last exit code (-1 if signaled)
  int term_signal = 0;   // last terminating signal (0 if exited)
  double last_heartbeat_age = -1.0;
  Clock::time_point attempt_start;
  Clock::time_point last_alive;
  Clock::time_point next_launch;  // backoff schedule when pid < 0
  fs::file_time_type last_mtime;
  bool have_mtime = false;
  std::string dir, status_path, log_path;
};

std::vector<std::string> shard_argv(const FleetOptions& o,
                                    const std::vector<std::string>& names,
                                    const ShardState& s, bool resume) {
  std::vector<std::string> a;
  a.push_back(o.sweep_bin);
  a.push_back("--shard");
  a.push_back(std::to_string(s.shard) + "/" + std::to_string(o.shards));
  a.push_back("--out-dir");
  a.push_back(s.dir);
  a.push_back("--status-file");
  a.push_back(s.status_path);
  if (o.metrics) {
    a.push_back("--metrics");
    a.push_back(s.dir + "/metrics.json");
  }
  a.push_back("--quiet");
  a.push_back("--no-progress");
  if (resume) a.push_back("--resume");
  a.insert(a.end(), o.sweep_args.begin(), o.sweep_args.end());
  a.insert(a.end(), names.begin(), names.end());
  return a;
}

std::string describe_exit(int status) {
  if (WIFEXITED(status))
    return "exited with code " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return "killed by signal " + std::to_string(WTERMSIG(status));
  return "ended with status " + std::to_string(status);
}

/// merged/gaps.json: the machine-readable account of what a partial merge
/// left out — which shards failed (and how) and exactly which global cell
/// indices are therefore absent from the merged files.
void write_gap_manifest(const std::string& path, const FleetOptions& o,
                        std::uint64_t total_cells,
                        const std::vector<ShardState>& states,
                        const std::vector<std::uint64_t>& missing) {
  std::ostringstream os;
  os << "{\"record\": \"gap_manifest\", \"schema\": 1, \"shards\": "
     << o.shards << ", \"total_cells\": " << total_cells
     << ", \"failed_shards\": [";
  bool first = true;
  for (const ShardState& s : states) {
    if (!s.failed) continue;
    if (!first) os << ", ";
    first = false;
    os << "{\"shard\": " << s.shard << ", \"attempts\": " << s.attempts
       << ", \"exit_code\": " << s.exit_code
       << ", \"signal\": " << s.term_signal
       << ", \"hung\": " << (s.hung ? "true" : "false")
       << ", \"last_heartbeat_age_seconds\": ";
    if (s.last_heartbeat_age >= 0.0)
      os << json_number(s.last_heartbeat_age);
    else
      os << "null";
    os << ", \"log\": " << json_quote(s.log_path) << "}";
  }
  os << "], \"missing_cells\": [";
  for (std::size_t i = 0; i < missing.size(); ++i)
    os << (i ? ", " : "") << missing[i];
  os << "]}\n";
  publish_file(path, os.str(), "gap manifest");
}

}  // namespace

std::uint64_t backoff_delay_ms(std::uint64_t base_ms, unsigned attempt,
                               std::uint64_t fleet_seed, unsigned shard) {
  if (attempt == 0) attempt = 1;
  if (base_ms == 0) base_ms = 1;
  constexpr std::uint64_t kCapMs = 30'000;
  const unsigned shift = std::min(attempt - 1, 20u);
  std::uint64_t delay = base_ms << shift;
  if (delay > kCapMs || (delay >> shift) != base_ms) delay = kCapMs;
  // SplitMix64 over (seed, shard, attempt): the jitter is a pure function
  // of the fleet seed, so chaos runs reproduce exactly, while distinct
  // shards decorrelate instead of thundering back in lockstep.
  std::uint64_t z = fleet_seed +
                    0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(shard) + 1) +
                    0xBF58476D1CE4E5B9ull * attempt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  z ^= z >> 31;
  return delay + z % (delay / 2 + 1);
}

FleetOptions default_fleet_options() {
  FleetOptions o;
  o.heartbeat_timeout = kDefaultStaleAfterSeconds;
  std::error_code ec;
  const fs::path self = fs::read_symlink("/proc/self/exe", ec);
  if (!ec) o.sweep_bin = (self.parent_path() / "mtr_sweep").string();
  return o;
}

FleetOptions parse_fleet_args(int argc, const char* const* argv) {
  FleetOptions o = default_fleet_options();
  // mtr_sweep's own workload handlers, run against a scratch SweepOptions,
  // refuse a bad value before any subprocess starts. The shards read their
  // own environment, so the MTR_BENCH_* defaults are not consulted here.
  SweepOptions scratch;
  FlagTable table;
  for (Flag& f : workload_flags(scratch))
    table.push_back({f.name, f.values,
                     [&o, check = std::move(f.handle)](std::string_view src,
                                                       FlagValues v) {
                       check(src, v);
                       o.sweep_args.emplace_back(src);
                       o.sweep_args.insert(o.sweep_args.end(), v.begin(),
                                           v.end());
                     }});
  table.insert(table.end(), {
    switch_flag("--help", o.help),
    switch_flag("-h", o.help),
    switch_flag("--all", o.all),
    switch_flag("--quiet", o.quiet),
    switch_flag("--allow-partial", o.allow_partial),
    switch_flag("--no-metrics", o.metrics, false),
    text_flag("--out-dir", o.out_dir),
    text_flag("--sweep-bin", o.sweep_bin),
    value_flag("--shards", o.shards, int_value<unsigned, 1>),
    value_flag("--max-retries", o.max_retries, int_value<unsigned>),
    value_flag("--backoff-base", o.backoff_base_ms, int_value<std::uint64_t>),
    value_flag("--fleet-seed", o.fleet_seed, int_value<std::uint64_t>),
    value_flag("--heartbeat-timeout", o.heartbeat_timeout, nonnegative_real),
    value_flag("--wall-timeout", o.wall_timeout, nonnegative_real),
    value_flag("--poll-ms", o.poll_ms, int_value<std::uint64_t, 1>),
    {"--fault-inject", 1,
     [&o](std::string_view src, FlagValues v) {
       const std::string_view arg = v[0];
       const std::size_t colon = arg.find(':');
       if (colon == std::string_view::npos)
         throw UsageError("--fault-inject expects SHARD:SPEC, got '" +
                          std::string(arg) + "'");
       const unsigned shard = int_value<unsigned>(src, arg.substr(0, colon));
       const std::string spec(arg.substr(colon + 1));
       parse_fault_plan(spec);  // reject malformed specs at the supervisor
       for (const auto& [existing, unused] : o.faults)
         if (existing == shard)
           throw UsageError("--fault-inject: shard " + std::to_string(shard) +
                            " already has a fault plan");
       o.faults.emplace_back(shard, spec);
     }},
  });
  parse_flags(argc, argv, table,
              [&o](std::string_view name) { o.sweeps.emplace_back(name); });
  return o;
}

int run_fleet(const FleetOptions& options, std::ostream& out, std::ostream& err,
              FleetReport* report) {
  if (options.help) {
    out << kUsage;
    return 0;
  }
  if (options.out_dir.empty()) throw UsageError("--out-dir is required");
  if (options.all && !options.sweeps.empty())
    throw UsageError("--all conflicts with naming sweeps — pick one");
  if (!options.all && options.sweeps.empty())
    throw UsageError("nothing selected — name sweeps or pass --all");
  if (options.sweep_bin.empty())
    throw UsageError("--sweep-bin is required (could not locate mtr_sweep "
                     "next to this binary)");
  for (const auto& [shard, spec] : options.faults)
    if (shard >= options.shards)
      throw UsageError("--fault-inject targets shard " +
                       std::to_string(shard) + " but the fleet has " +
                       std::to_string(options.shards) + " shard(s)");

  fs::create_directories(options.out_dir);
  const std::string preflight_log =
      (fs::path(options.out_dir) / "preflight.log").string();

  // Preflight 1: resolve --all into concrete sweep names (the merge step
  // needs them to find the per-sweep shard files).
  std::vector<std::string> names = options.sweeps;
  if (options.all) {
    const ExecResult r =
        run_capture({options.sweep_bin, "--list"}, preflight_log);
    if (r.exit_code != 0) {
      err << "mtr_fleet: preflight '" << options.sweep_bin
          << " --list' failed (exit " << r.exit_code << "):\n"
          << r.output;
      return 1;
    }
    std::istringstream lines(r.output);
    std::string line;
    while (std::getline(lines, line)) {
      const std::size_t end = line.find_first_of(" \t");
      const std::string name = line.substr(0, end);
      if (!name.empty()) names.push_back(name);
    }
    if (names.empty()) {
      err << "mtr_fleet: preflight --list reported no sweeps\n";
      return 1;
    }
  }

  // Preflight 2: the total cell count, for the gap manifest and the final
  // summary. A dry run is cheap (no cells execute) and uses the exact
  // workload flags the shards get, so the count is authoritative.
  std::uint64_t total_cells = 0;
  {
    std::vector<std::string> a{options.sweep_bin, "--dry-run", "--quiet"};
    a.insert(a.end(), options.sweep_args.begin(), options.sweep_args.end());
    a.insert(a.end(), names.begin(), names.end());
    const ExecResult r = run_capture(a, preflight_log);
    if (r.exit_code != 0) {
      err << "mtr_fleet: preflight dry run failed (exit " << r.exit_code
          << "):\n"
          << r.output;
      return 1;
    }
    // "dry run: S sweep(s), C cell(s)"
    const std::size_t tag = r.output.find("dry run: ");
    const std::size_t comma =
        tag == std::string::npos ? tag : r.output.find(", ", tag);
    if (comma != std::string::npos) {
      const std::size_t start = comma + 2;
      std::size_t digits = start;
      while (digits < r.output.size() &&
             std::isdigit(static_cast<unsigned char>(r.output[digits])))
        ++digits;
      const std::optional<std::uint64_t> cells =
          parse_u64(r.output.substr(start, digits - start));
      if (cells) total_cells = *cells;
    }
    if (total_cells == 0) {
      err << "mtr_fleet: preflight dry run reported no cells:\n" << r.output;
      return 1;
    }
  }

  const unsigned max_attempts = options.max_retries + 1;
  std::vector<ShardState> states(options.shards);
  for (unsigned i = 0; i < options.shards; ++i) {
    ShardState& s = states[i];
    s.shard = i;
    s.dir = (fs::path(options.out_dir) / ("shard" + std::to_string(i))).string();
    s.status_path = s.dir + "/status.json";
    fs::create_directories(s.dir);
  }
  const auto fault_for = [&](unsigned shard) -> const char* {
    for (const auto& [idx, spec] : options.faults)
      if (idx == shard) return spec.c_str();
    return nullptr;
  };

  const auto launch = [&](ShardState& s) {
    ++s.attempts;
    const bool resume = s.attempts > 1;
    s.log_path = s.dir + "/attempt" + std::to_string(s.attempts) + ".log";
    // Faults arm the FIRST attempt only: the schedule's job is to break
    // that attempt and prove the supervisor heals it, not to re-break
    // every retry forever.
    const char* fault = s.attempts == 1 ? fault_for(s.shard) : nullptr;
    const std::vector<std::string> argv =
        shard_argv(options, names, s, resume);
    s.pid = spawn_child(argv, s.log_path, fault);
    s.attempt_start = s.last_alive = Clock::now();
    s.have_mtime = false;
    if (!options.quiet)
      err << "mtr_fleet: shard " << s.shard << ": attempt " << s.attempts
          << "/" << max_attempts << " (pid " << s.pid << ")"
          << (fault != nullptr ? std::string(" [fault: ") + fault + "]" : "")
          << (resume ? " [--resume]" : "") << "\n";
  };

  const auto fail_or_retry = [&](ShardState& s, const std::string& how) {
    s.pid = -1;
    if (s.attempts < max_attempts) {
      const std::uint64_t delay = backoff_delay_ms(
          options.backoff_base_ms, s.attempts, options.fleet_seed, s.shard);
      s.next_launch = Clock::now() + std::chrono::milliseconds(delay);
      err << "mtr_fleet: shard " << s.shard << " " << how << "; retrying in "
          << delay << "ms (attempt " << (s.attempts + 1) << "/" << max_attempts
          << ")\n";
    } else {
      s.failed = true;
      err << "mtr_fleet: shard " << s.shard << " " << how << "; retries "
          << "exhausted\n";
    }
  };

  const auto kill_hung = [&](ShardState& s, const std::string& why) {
    err << "mtr_fleet: shard " << s.shard << " " << why << "; killing pid "
        << s.pid << "\n";
    ::kill(s.pid, SIGKILL);
    int st = 0;
    while (::waitpid(s.pid, &st, 0) < 0 && errno == EINTR) {}
    s.hung = true;
    s.exit_code = -1;
    s.term_signal = SIGKILL;
    fail_or_retry(s, why);
  };

  for (ShardState& s : states) launch(s);

  // The supervision loop: reap exits, observe heartbeats, kill the hung,
  // relaunch the scheduled.
  for (;;) {
    bool pending = false;
    for (ShardState& s : states) {
      if (s.done || s.failed) continue;
      pending = true;
      if (s.pid < 0) {
        if (Clock::now() >= s.next_launch) launch(s);
        continue;
      }
      int st = 0;
      const pid_t r = ::waitpid(s.pid, &st, WNOHANG);
      if (r == s.pid) {
        if (WIFEXITED(st) && WEXITSTATUS(st) == 0) {
          s.pid = -1;
          s.done = true;
          s.exit_code = 0;
          s.term_signal = 0;
          if (!options.quiet)
            err << "mtr_fleet: shard " << s.shard << " complete (attempt "
                << s.attempts << ")\n";
        } else {
          s.hung = false;
          s.exit_code = WIFEXITED(st) ? WEXITSTATUS(st) : -1;
          s.term_signal = WIFSIGNALED(st) ? WTERMSIG(st) : 0;
          fail_or_retry(s, describe_exit(st));
        }
        continue;
      }
      // Liveness: the status file's mtime advancing is the heartbeat. A
      // shard too early (or too torn) to have written one is measured
      // from its launch instant.
      std::error_code ec;
      const fs::file_time_type mtime = fs::last_write_time(s.status_path, ec);
      if (!ec && (!s.have_mtime || mtime != s.last_mtime)) {
        s.last_mtime = mtime;
        s.have_mtime = true;
        s.last_alive = Clock::now();
      }
      const double age = seconds_between(s.last_alive, Clock::now());
      s.last_heartbeat_age = age;
      if (heartbeat_stale(age, options.heartbeat_timeout)) {
        kill_hung(s, "heartbeat stale (" + fmt_age(age) + "s > " +
                         fmt_age(options.heartbeat_timeout) + "s)");
      } else if (options.wall_timeout > 0.0 &&
                 seconds_between(s.attempt_start, Clock::now()) >
                     options.wall_timeout) {
        kill_hung(s, "wall-clock timeout (" +
                         fmt_age(options.wall_timeout) + "s)");
      }
    }
    if (!pending) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
  }

  std::vector<const ShardState*> failed;
  for (const ShardState& s : states)
    if (s.failed) failed.push_back(&s);

  // The per-shard failure report: everything a human needs to triage
  // without re-running — how it died, how often, and where the log is.
  for (const ShardState* s : failed) {
    err << "mtr_fleet: shard " << s->shard << " FAILED after " << s->attempts
        << " attempt(s): ";
    if (s->hung)
      err << "hung (last heartbeat " << fmt_age(s->last_heartbeat_age)
          << "s before the kill)";
    else if (s->term_signal != 0)
      err << "killed by signal " << s->term_signal;
    else
      err << "exit code " << s->exit_code;
    err << "; log: " << s->log_path << "\n";
  }

  const auto fill_report = [&](bool merged,
                               std::vector<std::uint64_t> missing) {
    if (report == nullptr) return;
    report->shards.clear();
    for (const ShardState& s : states) {
      ShardOutcome o;
      o.shard = s.shard;
      o.succeeded = s.done;
      o.attempts = s.attempts;
      o.exit_code = s.exit_code;
      o.term_signal = s.term_signal;
      o.hung = s.hung;
      o.last_heartbeat_age = s.last_heartbeat_age;
      o.log_path = s.log_path;
      report->shards.push_back(std::move(o));
    }
    report->total_cells = total_cells;
    report->merged = merged;
    report->missing_cells = std::move(missing);
  };

  if (!failed.empty() && !options.allow_partial) {
    fill_report(false, {});
    return 1;
  }
  if (failed.size() == states.size()) {
    err << "mtr_fleet: every shard failed — nothing to merge\n";
    fill_report(false, {});
    return 1;
  }

  // Merge. Partial fleets merge with --allow-gaps semantics and leave a
  // manifest of exactly which cells are absent and why. The sweeps' merges
  // (and the metrics fold) are independent, so they run side by side; each
  // buffers its messages, which print in sweep order, and the first
  // failing job in that order is the one reported.
  const bool partial = !failed.empty();
  const std::string merged_dir =
      (fs::path(options.out_dir) / "merged").string();
  fs::create_directories(merged_dir);

  struct MergeJob {
    std::string what;  // for the failure line
    MergeOptions options;
    int rc = 0;
    std::ostringstream out, err;
    std::vector<std::uint64_t> cells;  // what the merge found
  };
  std::vector<MergeJob> jobs(names.size() + (options.metrics ? 1 : 0));
  for (std::size_t i = 0; i < names.size(); ++i) {
    MergeJob& job = jobs[i];
    job.what = "merge of sweep '" + names[i] + "'";
    MergeOptions& m = job.options;
    m.allow_gaps = partial;
    m.csv_out = merged_dir + "/" + names[i] + ".csv";
    m.jsonl_out = merged_dir + "/" + names[i] + ".jsonl";
    for (const ShardState& s : states) {
      if (!s.done) continue;
      m.csv_in.push_back(s.dir + "/" + names[i] + ".csv");
      m.jsonl_in.push_back(s.dir + "/" + names[i] + ".jsonl");
    }
  }
  if (options.metrics) {
    MergeJob& job = jobs.back();
    job.what = "metrics fold";
    job.options.metrics_out = merged_dir + "/metrics.json";
    for (const ShardState& s : states)
      if (s.done) job.options.metrics_in.push_back(s.dir + "/metrics.json");
  }
  {
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
      for (std::size_t j; (j = next++) < jobs.size();) {
        MergeJob& job = jobs[j];
        try {
          job.rc = run_merge(job.options, job.out, job.err, &job.cells);
        } catch (const std::exception& e) {
          job.err << "mtr_merge: " << e.what() << '\n';
          job.rc = 1;
        }
      }
    };
    const std::size_t width = std::min<std::size_t>(
        std::max(1u, std::thread::hardware_concurrency()), jobs.size());
    std::vector<std::jthread> pool;  // joined on scope exit, throw or not
    for (std::size_t t = 1; t < width; ++t) pool.emplace_back(worker);
    worker();
  }
  std::vector<char> found(total_cells, 0);
  for (MergeJob& job : jobs) {
    (options.quiet ? err : out) << job.out.str();
    err << job.err.str();
    if (job.rc != 0) {
      err << "mtr_fleet: " << job.what << " failed (exit " << job.rc << ")\n";
      fill_report(false, {});
      return 1;
    }
    for (const std::uint64_t c : job.cells)
      if (c < total_cells) found[c] = 1;
  }
  // What is missing is exactly what no merge found: the failed shards'
  // cells, whatever rule assigned them.
  std::vector<std::uint64_t> missing_cells;
  for (std::uint64_t c = 0; partial && c < total_cells; ++c)
    if (!found[c]) missing_cells.push_back(c);
  if (partial)
    write_gap_manifest(merged_dir + "/gaps.json", options, total_cells, states,
                       missing_cells);

  if (!options.quiet || partial) {
    err << "mtr_fleet: " << (states.size() - failed.size()) << "/"
        << states.size() << " shard(s) merged";
    if (partial)
      err << " (partial: " << missing_cells.size() << " of " << total_cells
          << " cell(s) missing; see " << merged_dir << "/gaps.json)";
    err << "\n";
  }
  fill_report(true, std::move(missing_cells));
  return 0;
}

int fleet_main(int argc, const char* const* argv) {
  return run_cli("mtr_fleet", kUsage, 2, [&] {
    return run_fleet(parse_fleet_args(argc, argv), std::cout, std::cerr);
  });
}

}  // namespace mtr::dist
