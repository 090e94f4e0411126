// Experiment orchestration: one victim workload, optionally one attack,
// every meter attached — the harness behind each figure reproduction.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "attacks/attack.hpp"
#include "common/stats.hpp"
#include "core/trusted_metering.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics.hpp"
#include "workloads/population.hpp"
#include "workloads/workloads.hpp"

namespace mtr::core {

/// Opt-in kernel observability for one run. Default-constructed = fully off:
/// the kernel never sees a tracer or stats sink and executes the exact
/// pre-observability instruction stream.
struct TraceRequest {
  /// Non-empty = record kernel events and write a Chrome/Perfetto
  /// trace-event JSON file at this path when the run completes. Its
  /// process track is labelled "<workload>/<attack>".
  std::string path;
  /// Ring capacity in events; when the run records more, the oldest are
  /// dropped and the exporter reports the drop count.
  std::size_t ring_capacity = 1 << 16;
  /// Collect KernelStats counters even without a trace file.
  bool collect_stats = false;

  bool enabled() const { return !path.empty(); }
};

/// Victim/attacker scheduling niceness — one scenario axis on the grid
/// seam. Defaults are the pre-axis behaviour: nobody is renamed from what
/// the workload/attack chose for itself, so default-valued cells execute
/// the exact pre-axis instruction stream.
struct NiceSpec {
  Nice victim{0};
  Nice attacker{0};

  friend constexpr bool operator==(const NiceSpec&, const NiceSpec&) = default;
};

struct ExperimentConfig {
  workloads::WorkloadKind kind = workloads::WorkloadKind::kOurs;
  workloads::WorkloadParams workload{};
  /// Tenant population sharing the host with the victim (size 1 = the
  /// classic single-victim cell; the population path is disabled then).
  workloads::PopulationSpec population{};
  /// Victim/attacker nice values (0/0 = leave the defaults untouched).
  NiceSpec nice{};
  sim::SimConfig sim{};
  /// Observability (tracing + kernel counters); off by default.
  TraceRequest trace{};
};

struct ExperimentResult {
  workloads::WorkloadKind kind{};
  std::string attack_name;  // empty = baseline

  Pid victim_pid{};
  Tgid victim_tgid{};
  bool victim_exited = false;
  double wall_seconds = 0.0;

  // What the commodity kernel bills (the paper's figures plot this).
  CpuUsageTicks billed_ticks;
  double billed_user_seconds = 0.0;
  double billed_system_seconds = 0.0;
  double billed_seconds = 0.0;

  // Ground truth and alternative meters.
  CpuUsageCycles true_cycles;  // cycle-exact on-CPU time of the group
  double true_seconds = 0.0;
  CpuUsageCycles tsc_cycles;
  double tsc_seconds = 0.0;
  CpuUsageCycles pais_cycles;
  double pais_seconds = 0.0;

  /// billed_seconds / true_seconds — the provider's overcharge factor.
  double overcharge = 1.0;

  // Integrity evidence.
  SourceIntegrityMonitor::Verdict source_verdict;
  crypto::Digest32 witness{};
  std::uint64_t witness_steps = 0;

  // Side statistics.
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
  std::uint64_t debug_exceptions = 0;
  std::uint64_t voluntary_switches = 0;
  std::uint64_t involuntary_switches = 0;
  std::uint64_t nic_packets = 0;

  // Attacker-side usage (scheduling attack reports both bars).
  bool has_attacker = false;
  CpuUsageTicks attacker_ticks;
  double attacker_billed_seconds = 0.0;
  CpuUsageCycles attacker_true_cycles;
  double attacker_true_seconds = 0.0;

  // Population metering (schema v4). Tenant 0 is always the victim; the
  // sketches hold one sample per tenant, so records stay O(sketch buckets)
  // — never O(population) — at 10^4 processes per cell.
  std::uint64_t pop_tenants = 1;
  std::uint64_t pop_attackers = 0;
  /// Tenants the auditor's meter cross-check flags, split by ground truth.
  std::uint64_t pop_flagged_attackers = 0;
  std::uint64_t pop_flagged_honest = 0;
  double pop_billing_error_mean = 0.0;   // exact mean of per-tenant errors
  double pop_billing_error_p99 = 0.0;    // sketch-derived tail
  double pop_attacker_advantage_mean = 0.0;
  double pop_detection_tpr = 0.0;  // flagged attackers / attackers
  double pop_detection_fpr = 0.0;  // flagged honest / honest
  QuantileSketch pop_billing_error;       // billed − true seconds, per tenant
  QuantileSketch pop_billed_seconds;      // per-tenant tick bill
  QuantileSketch pop_true_seconds;        // per-tenant ground truth
  QuantileSketch pop_attacker_advantage;  // true − billed, attacker tenants

  /// False when the run drew nothing from the kernel's seeded generator and
  /// ran no population: nothing it did read the seed, so a run at any other
  /// seed yields this same result. Never serialized.
  bool seed_dependent = true;

  // Observability (populated only when ExperimentConfig::trace asked for it;
  // never part of the CSV/JSONL result schema).
  trace::KernelStats kstats;
  trace::Telemetry telemetry;
  std::uint64_t trace_events_recorded = 0;
  std::uint64_t trace_events_dropped = 0;
};

/// Told, once a run's setup is done (victim, neighbors and attack in place,
/// nothing simulated yet), whether the run has read its seed so far.
/// Population generation and the NIC flood's start both read it during
/// setup, so a seed-dependent run is known long before it ends.
using SetupCallback = std::function<void(bool seed_drawn)>;

/// Runs one victim (with `attack`, or baseline when null) to completion and
/// collects every meter's verdict. Each call builds a fresh Simulation with
/// a fresh TrustedMeteringService, so runs are independent and
/// deterministic.
ExperimentResult run_experiment(const ExperimentConfig& config,
                                attacks::Attack* attack = nullptr,
                                const SetupCallback& on_setup = nullptr);

/// The whitelist a clean launch of `kind` expects: genuine libraries, the
/// genuine shell, and the workload image itself.
std::vector<std::string> expected_code_tags(workloads::WorkloadKind kind);

}  // namespace mtr::core
