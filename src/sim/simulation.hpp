// Simulation facade: one simulated machine with its kernel, library
// registry, loader and shell. Experiments, attacks, tests and examples all
// drive the system through this interface.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "exec/library.hpp"
#include "exec/loader.hpp"
#include "exec/shell.hpp"
#include "kernel/kernel.hpp"

namespace mtr::sim {

enum class SchedulerKind : std::uint8_t { kO1, kCfs };

const char* to_string(SchedulerKind k);

struct SimConfig {
  kernel::KernelConfig kernel{};
  SchedulerKind scheduler = SchedulerKind::kO1;
};

/// Per-launch knobs; attacks mutate these in their prepare() phase.
struct LaunchOptions {
  /// Steps a tampered shell injects between fork() and execve().
  std::vector<kernel::Step> shell_preexec;
  /// Identity of the shell image the child inherits.
  std::string shell_content_tag = "bash#4.0";
  /// Nice value of the launched job.
  Nice nice{0};
};

class Simulation {
 public:
  explicit Simulation(SimConfig config = {});

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  kernel::Kernel& kernel() { return *kernel_; }
  const kernel::Kernel& kernel() const { return *kernel_; }

  /// Mutable before launches: attacks add/preload malicious libraries here.
  exec::LibraryRegistry& libraries() { return registry_; }
  const exec::Loader& loader() const { return loader_; }
  const SimConfig& config() const { return config_; }

  /// Length of one timer tick in cycles.
  Cycles tick() const;

  /// Launches `image` through the shell and steps the simulation just far
  /// enough for the target process to exist (post-execve); returns its pid.
  Pid launch(const exec::ImageSpec& image, LaunchOptions opts = {});

  /// Spawns a raw process (attackers, daemons) without shell involvement.
  Pid spawn(kernel::SpawnSpec spec) { return kernel_->spawn(std::move(spec)); }

  /// Runs until the process has exited (zombie/reaped), everything is done,
  /// or `max_cycles` more cycles have elapsed. Returns true if it exited.
  bool run_until_exit(Pid pid, Cycles max_cycles = Cycles{UINT64_MAX / 2});

  /// Runs until no runnable/sleeping work remains (bounded by max_cycles).
  void run_all(Cycles max_cycles = Cycles{UINT64_MAX / 2});

  /// Runs for exactly `delta` more cycles (or until all work is done).
  void run_for(Cycles delta);

  bool exited(Pid pid) const;

  /// All live pids in a thread group.
  std::vector<Pid> group_members(Tgid tg) const;

  /// Convenience: the usage the provider would bill for `pid`'s job.
  kernel::GroupUsage usage_of(Pid pid) const;

 private:
  SimConfig config_;
  std::unique_ptr<kernel::Kernel> kernel_;
  exec::LibraryRegistry registry_;
  exec::Loader loader_;
};

}  // namespace mtr::sim
