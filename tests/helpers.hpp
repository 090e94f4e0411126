// Shared fixtures for the metertrust test suite: small, fast configurations
// of the simulated machine and the experiment harness.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "core/experiment.hpp"
#include "kernel/accounting.hpp"
#include "sim/simulation.hpp"

namespace mtr::test {

/// A small machine: 2.53 GHz, 250 HZ, 16k frames — the defaults, explicit.
inline sim::SimConfig small_machine(sim::SchedulerKind sched = sim::SchedulerKind::kO1,
                                    std::uint64_t seed = 42) {
  sim::SimConfig cfg;
  cfg.scheduler = sched;
  cfg.kernel.seed = seed;
  return cfg;
}

/// Experiment config with a workload scaled to well under a virtual second
/// per run, so the full suite stays fast.
inline core::ExperimentConfig quick_experiment(
    workloads::WorkloadKind kind, double scale = 0.02,
    sim::SchedulerKind sched = sim::SchedulerKind::kO1) {
  core::ExperimentConfig cfg;
  cfg.kind = kind;
  cfg.workload.scale = scale;
  cfg.sim = small_machine(sched);
  return cfg;
}

/// Counts the events it receives, one slot per kernel::HookEvent, and
/// keeps the default declaration: every event.
struct EventCounter : kernel::AccountingHook {
  std::array<std::uint64_t, kernel::kHookEventCount> seen{};
  void on_cycles(Cycles, Pid, Tgid, kernel::WorkKind, Cycles, Pid) override {
    ++seen[0];
  }
  void on_ticks(Cycles, Cycles, std::uint64_t, Pid, Tgid, CpuMode) override {
    ++seen[1];
  }
  void on_code_mapped(Cycles, Tgid, const kernel::CodeMapping&) override { ++seen[2]; }
  void on_step_begin(Cycles, Pid, Tgid, std::string_view, std::string_view) override {
    ++seen[3];
  }
  void on_process_created(Cycles, Pid, Tgid, Pid, std::string_view) override {
    ++seen[4];
  }
  void on_process_exited(Cycles, Pid, Tgid, int) override { ++seen[5]; }
};

/// The same counter, declaring only the cycles event.
struct CyclesOnlyCounter final : EventCounter {
  std::uint8_t events() const override {
    return kernel::event_mask(kernel::HookEvent::kCycles);
  }
};

}  // namespace mtr::test
