#include "dist/fault.hpp"

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "common/parse.hpp"
#include "dist/flags.hpp"

namespace mtr::dist {
namespace {

[[noreturn]] void bad_spec(const std::string& spec, const std::string& why) {
  throw UsageError(
      "fault-inject spec '" + spec + "': " + why +
      " (grammar: crash-after-cell=K[,torn-tail=B],sigkill-after-ms=T,"
      "fail-flush-at=J — any subset, comma separated, in this order)");
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  if (spec.empty()) return plan;
  std::vector<std::string> keys;
  for (std::size_t pos = 0;;) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    if (item.empty())
      bad_spec(spec, "empty clause at byte " + std::to_string(pos));
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos)
      bad_spec(spec, "clause '" + item + "' has no '='");
    const std::string key = item.substr(0, eq);
    const std::string raw = item.substr(eq + 1);
    const std::optional<std::uint64_t> value = parse_u64(raw);
    if (!value)
      bad_spec(spec, "clause '" + item + "' needs a non-negative integer");
    for (const std::string& seen : keys)
      if (seen == key) bad_spec(spec, "clause '" + item + "' repeats '" + key + "'");
    keys.push_back(key);
    if (key == "crash-after-cell") {
      plan.crash_after_cell = *value;
    } else if (key == "torn-tail") {
      plan.torn_tail_bytes = *value;
    } else if (key == "sigkill-after-ms") {
      plan.sigkill_after_ms = *value;
    } else if (key == "fail-flush-at") {
      if (*value == 0) bad_spec(spec, "fail-flush-at counts flushes from 1");
      plan.fail_flush_at = *value;
    } else {
      bad_spec(spec, "unknown fault '" + key + "'");
    }
    if (end == spec.size()) break;
    pos = end + 1;
  }
  if (plan.torn_tail_bytes > 0 && !plan.crash_after_cell)
    bad_spec(spec, "torn-tail needs crash-after-cell (it tears at the crash)");
  // One spelling per plan, so a spec always comes back unchanged through
  // to_string: clauses in grammar order, numbers without leading zeros,
  // and no torn-tail=0 (it tears nothing).
  const std::string canonical = to_string(plan);
  if (canonical != spec) bad_spec(spec, "not canonical; write '" + canonical + "'");
  return plan;
}

std::string to_string(const FaultPlan& plan) {
  std::string out;
  const auto add = [&](const char* key, std::uint64_t v) {
    if (!out.empty()) out += ',';
    out += key;
    out += '=';
    out += std::to_string(v);
  };
  if (plan.crash_after_cell) add("crash-after-cell", *plan.crash_after_cell);
  if (plan.torn_tail_bytes > 0) add("torn-tail", plan.torn_tail_bytes);
  if (plan.sigkill_after_ms) add("sigkill-after-ms", *plan.sigkill_after_ms);
  if (plan.fail_flush_at) add("fail-flush-at", *plan.fail_flush_at);
  return out;
}

void FaultInjector::arm_sigkill() {
  if (!plan_.sigkill_after_ms) return;
  // Detached on purpose: SIGKILL is not unwound, so there is no teardown
  // for the thread to outlive. raise(2) of SIGKILL cannot be blocked or
  // handled — the closest a simulation gets to a node dying mid-write.
  std::thread([ms = *plan_.sigkill_after_ms] {
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    ::kill(::getpid(), SIGKILL);
  }).detach();
}

void FaultInjector::set_active_files(std::vector<std::string> files) {
  files_ = std::move(files);
}

void FaultInjector::on_sinks_open() {
  if (plan_.crash_after_cell && *plan_.crash_after_cell == 0) crash_now();
}

void FaultInjector::on_cell_complete() {
  const std::uint64_t n = cells_.fetch_add(1) + 1;
  if (plan_.crash_after_cell && n == *plan_.crash_after_cell) crash_now();
}

void FaultInjector::on_sink_flush(const char* kind) {
  if (!plan_.fail_flush_at) return;
  const std::uint64_t n = flushes_.fetch_add(1) + 1;
  if (n == *plan_.fail_flush_at)
    throw std::runtime_error("fault injection: sink flush " +
                             std::to_string(n) + " (" + kind +
                             ") failed by plan");
}

void FaultInjector::crash_now() {
  // Sinks flush per cell, so every registered file's bytes are in the OS
  // by the time a crash point fires; resize_file after the fact models the
  // torn final line a mid-write kill leaves on disk.
  for (const std::string& path : files_) {
    std::error_code ec;
    const std::uintmax_t size = std::filesystem::file_size(path, ec);
    if (ec) continue;  // never written — nothing to tear
    const std::uintmax_t keep =
        size > plan_.torn_tail_bytes ? size - plan_.torn_tail_bytes : 0;
    std::filesystem::resize_file(path, keep, ec);
  }
  // _Exit, not abort(): no atexit handlers, no stream teardown — buffered
  // state dies with the process exactly like a real crash.
  std::_Exit(kFaultCrashExitCode);
}

}  // namespace mtr::dist
