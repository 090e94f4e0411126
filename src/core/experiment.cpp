#include "core/experiment.hpp"

#include <fstream>
#include <optional>
#include <stdexcept>

#include <cmath>
#include <utility>
#include <vector>

#include "attacks/scheduling_attack.hpp"
#include "common/ensure.hpp"
#include "core/auditor.hpp"
#include "trace/perfetto.hpp"
#include "trace/tracer.hpp"
#include "workloads/population.hpp"
#include "workloads/stdlibs.hpp"

namespace mtr::core {

std::vector<std::string> expected_code_tags(workloads::WorkloadKind kind) {
  std::vector<std::string> tags = {
      workloads::kLibcTag,
      workloads::kLibmTag,
      workloads::kLibpthreadTag,
      workloads::kBashTag,
  };
  const workloads::WorkloadInfo info = workloads::make_workload(kind);
  tags.push_back(info.image.content_tag);
  return tags;
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                attacks::Attack* attack) {
  sim::Simulation sim(config.sim);
  kernel::Kernel& kernel = sim.kernel();

  // Observability sinks: attached only when requested, so the default run
  // keeps the kernel's tracer/stats pointers null (zero-cost-when-off).
  std::optional<trace::Tracer> tracer;
  trace::KernelStats kstats;
  trace::Telemetry telemetry;
  const bool observing = config.trace.enabled() || config.trace.collect_stats;
  if (config.trace.enabled()) {
    tracer.emplace(config.trace.ring_capacity);
    kernel.set_tracer(&*tracer);
  }
  if (observing) {
    kernel.set_stats(&kstats);
    kernel.set_telemetry(&telemetry);
  }

  TrustedMeteringService service(config.tariff, config.sim.kernel.cpu,
                                 config.sim.kernel.hz);
  for (auto& tag : expected_code_tags(config.kind)) service.allow_code(std::move(tag));
  service.attach(kernel);

  const workloads::WorkloadInfo info =
      workloads::make_workload(config.kind, config.workload);

  sim::LaunchOptions opts;
  if (attack != nullptr) attack->prepare(sim, opts);
  // Nice axis, gated on non-default so default cells keep the exact
  // pre-axis instruction stream (byte-identity for closed-axes sweeps).
  if (config.nice.victim.v != 0) opts.nice = config.nice.victim;

  const Pid victim = sim.launch(info.image, std::move(opts));
  const Tgid victim_tg = kernel.process(victim).tgid;
  telemetry.victim = victim_tg;  // the group victim_gap tracks
  // Only the victim's witness is read: stop chaining every other group.
  service.meter(victim_tg);

  // Tenant population: the victim's neighbors on the host. Regenerated
  // from the cell seed alone, so any shard/resume/thread split rebuilds
  // the identical population.
  const workloads::PopulationSpec& pop = config.population;
  std::vector<std::pair<Tgid, bool>> neighbor_groups;  // tgid, is-attacker
  if (pop.enabled()) {
    const std::vector<workloads::TenantSpec> tenants =
        workloads::generate_population(pop, config.sim.kernel.seed);
    const double neighbor_cycles =
        pop.load * static_cast<double>(info.nominal_cycles.v);
    for (const workloads::TenantSpec& t : tenants) {
      if (t.index == 0) continue;  // the metered victim itself
      Pid pid;
      if (t.attacker) {
        attacks::SchedulingAttackParams ap;
        ap.nice = config.nice.attacker;
        ap.total_forks = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(std::llround(
                   150'000.0 * config.workload.scale * pop.load * t.share)));
        pid = attacks::SchedulingAttack::spawn_standalone(sim, ap);
      } else {
        kernel::SpawnSpec spec;
        spec.name = workloads::tenant_name(t);
        spec.program = workloads::make_tenant_program(t, neighbor_cycles);
        spec.nice = config.nice.victim;  // customers schedule like the victim
        spec.privileged = false;
        pid = sim.spawn(std::move(spec));
      }
      neighbor_groups.emplace_back(kernel.process(pid).tgid, t.attacker);
    }
  }

  attacks::AttackContext ctx{sim, victim, victim_tg, info.hot_addr};
  if (attack != nullptr) attack->engage(ctx);
  if (attack != nullptr && config.nice.attacker.v != 0) {
    for (const Pid apid : attack->attacker_pids())
      kernel.set_nice(apid, config.nice.attacker);
  }

  const bool exited = sim.run_until_exit(victim, config.run_limit);

  if (attack != nullptr) attack->disengage(ctx);
  sim.run_all(config.drain);

  // --- collect -------------------------------------------------------------
  ExperimentResult r;
  r.kind = config.kind;
  r.attack_name = attack != nullptr ? attack->name() : "";
  r.victim_pid = victim;
  r.victim_tgid = victim_tg;
  r.victim_exited = exited;
  r.wall_seconds = cycles_to_seconds(kernel.now(), config.sim.kernel.cpu);

  const CpuHz cpu = config.sim.kernel.cpu;
  const TimerHz hz = config.sim.kernel.hz;

  const kernel::GroupUsage usage = kernel.group_usage(victim_tg);
  r.billed_ticks = usage.ticks;
  r.billed_user_seconds = ticks_to_seconds(usage.ticks.utime, hz);
  r.billed_system_seconds = ticks_to_seconds(usage.ticks.stime, hz);
  r.billed_seconds = r.billed_user_seconds + r.billed_system_seconds;

  r.true_cycles = usage.true_cycles;
  r.true_seconds = cycles_to_seconds(usage.true_cycles.total(), cpu);
  r.tsc_cycles = service.tsc_meter().usage(victim_tg);
  r.tsc_seconds = cycles_to_seconds(r.tsc_cycles.total(), cpu);
  r.pais_cycles = service.pais_meter().usage(victim_tg);
  r.pais_seconds = cycles_to_seconds(r.pais_cycles.total(), cpu);
  r.overcharge = r.true_seconds > 0.0 ? r.billed_seconds / r.true_seconds : 1.0;

  r.source_verdict = service.source_monitor().verify(victim_tg);
  r.witness = service.execution_monitor().witness(victim_tg);
  r.witness_steps = service.execution_monitor().step_count(victim_tg);

  r.minor_faults = usage.minor_faults;
  r.major_faults = usage.major_faults;
  r.debug_exceptions = usage.debug_exceptions;
  r.voluntary_switches = usage.voluntary_switches;
  r.involuntary_switches = usage.involuntary_switches;
  r.nic_packets = kernel.nic().packets_delivered();

  if (attack != nullptr && !attack->attacker_pids().empty()) {
    r.has_attacker = true;
    for (const Pid apid : attack->attacker_pids()) {
      const kernel::GroupUsage au =
          kernel.group_usage(kernel.process(apid).tgid);
      r.attacker_ticks += au.ticks;
      r.attacker_true_cycles += au.true_cycles;
    }
    r.attacker_billed_seconds = ticks_to_seconds(r.attacker_ticks.utime, hz) +
                                ticks_to_seconds(r.attacker_ticks.stime, hz);
    r.attacker_true_seconds =
        cycles_to_seconds(r.attacker_true_cycles.total(), cpu);
  }

  // --- per-tenant metering (schema v4 population aggregates) --------------
  // One sketch sample per tenant: distributions stay O(sketch buckets) no
  // matter how large the population grows. The victim is tenant 0 even in
  // classic single-victim cells, so v4 columns are meaningful everywhere.
  {
    const double tolerance = AuditExpectations{}.meter_divergence_tolerance;
    // One timer tick of absolute slack: below that, a billed-vs-truth gap
    // is quantization noise, not meter dodging.
    const double floor_seconds = 1.0 / static_cast<double>(hz.v);
    double error_sum = 0.0;
    double advantage_sum = 0.0;
    const auto meter_tenant = [&](Tgid tg, bool attacker_tenant) {
      const kernel::GroupUsage gu = kernel.group_usage(tg);
      const double billed = ticks_to_seconds(gu.ticks.total(), hz);
      const double truth = cycles_to_seconds(gu.true_cycles.total(), cpu);
      r.pop_billing_error.add(billed - truth);
      r.pop_billed_seconds.add(billed);
      r.pop_true_seconds.add(truth);
      error_sum += billed - truth;
      const bool flagged = Auditor::meter_divergence_flagged(
          billed, truth, tolerance, floor_seconds);
      if (attacker_tenant) {
        ++r.pop_attackers;
        r.pop_attacker_advantage.add(truth - billed);
        advantage_sum += truth - billed;
        if (flagged) ++r.pop_flagged_attackers;
      } else if (flagged) {
        ++r.pop_flagged_honest;
      }
    };
    meter_tenant(victim_tg, false);
    for (const auto& [tg, attacker_tenant] : neighbor_groups)
      meter_tenant(tg, attacker_tenant);
    r.pop_tenants = 1 + neighbor_groups.size();
    r.pop_billing_error_mean = error_sum / static_cast<double>(r.pop_tenants);
    r.pop_billing_error_p99 = r.pop_billing_error.quantile(0.99);
    r.pop_attacker_advantage_mean =
        r.pop_attackers > 0
            ? advantage_sum / static_cast<double>(r.pop_attackers)
            : 0.0;
    const std::uint64_t honest = r.pop_tenants - r.pop_attackers;
    r.pop_detection_tpr =
        r.pop_attackers > 0 ? static_cast<double>(r.pop_flagged_attackers) /
                                  static_cast<double>(r.pop_attackers)
                            : 0.0;
    r.pop_detection_fpr =
        honest > 0 ? static_cast<double>(r.pop_flagged_honest) /
                         static_cast<double>(honest)
                   : 0.0;
  }

  if (observing) {
    // Billing error per thread group (leaders own the group accounting):
    // the signed seconds each customer would be over- or under-charged.
    for (const Pid pid : kernel.all_pids()) {
      const Tgid tg = kernel.process(pid).tgid;
      if (pid.v != tg.v) continue;
      const kernel::GroupUsage gu = kernel.group_usage(tg);
      telemetry.billing_error.add(
          ticks_to_seconds(gu.ticks.total(), hz) -
          cycles_to_seconds(gu.true_cycles.total(), cpu));
    }
    r.kstats = kstats;
    r.telemetry = std::move(telemetry);
  }
  if (tracer) {
    r.trace_events_recorded = tracer->recorded();
    r.trace_events_dropped = tracer->dropped();

    trace::ExportInfo info_out;
    info_out.label = std::string(workloads::short_name(config.kind)) +
                     (r.attack_name.empty() ? "/baseline" : "/" + r.attack_name);
    info_out.category = r.attack_name.empty() ? "baseline" : r.attack_name;
    info_out.cpu = cpu;
    info_out.hz = hz;
    info_out.victim = victim_tg;
    for (const Pid pid : kernel.all_pids())
      info_out.process_names.emplace_back(pid, kernel.process(pid).name);

    std::ofstream out(config.trace.path, std::ios::binary);
    if (!out) {
      throw std::runtime_error("cannot open trace file: " + config.trace.path);
    }
    trace::write_perfetto_json(out, *tracer, info_out, &r.telemetry);
  }
  return r;
}

}  // namespace mtr::core
