// A dishonest utility-computing provider runs every attack from the paper
// against a customer's Pi job and prints the inflated invoices: what each
// attack yields in dollars, per the commodity jiffy meter the provider
// bills from.
//
//   $ ./dishonest_provider
#include <iostream>
#include <memory>

#include "attacks/flooding_attacks.hpp"
#include "attacks/launch_attacks.hpp"
#include "attacks/scheduling_attack.hpp"
#include "attacks/thrashing_attack.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"

int main() {
  using namespace mtr;
  const double scale = 0.25;  // ~9.5 virtual seconds of Pi

  core::ExperimentConfig cfg;
  cfg.kind = workloads::WorkloadKind::kPi;
  cfg.workload.scale = scale;
  core::Tariff tariff;
  tariff.dollars_per_cpu_hour = 0.40;  // EC2-era pricing

  const auto base = core::run_experiment(cfg);
  core::BillingEngine billing(tariff, cfg.sim.kernel.cpu, cfg.sim.kernel.hz);
  const double honest_bill = billing.invoice(base.billed_ticks).amount_dollars;

  std::cout << "Customer job: " << workloads::long_name(cfg.kind) << " ("
            << fmt_double(base.true_seconds) << "s of real CPU)\n"
            << "Honest bill:  $" << fmt_double(honest_bill, 6) << "\n\n";

  attacks::SchedulingAttackParams sched;
  sched.nice = Nice{-20};
  sched.total_forks = static_cast<std::uint64_t>(150'000 * scale);
  attacks::ExceptionFloodParams hog;
  hog.hog_pages = 24 * 1024;

  std::vector<std::unique_ptr<attacks::Attack>> arsenal;
  arsenal.push_back(std::make_unique<attacks::ShellAttack>(
      seconds_to_cycles(34.0 * scale, CpuHz{})));
  arsenal.push_back(std::make_unique<attacks::LibraryCtorAttack>(
      seconds_to_cycles(34.0 * scale, CpuHz{})));
  arsenal.push_back(
      std::make_unique<attacks::LibraryInterpositionAttack>(Cycles{5'000'000}));
  arsenal.push_back(std::make_unique<attacks::SchedulingAttack>(sched));
  arsenal.push_back(std::make_unique<attacks::ThrashingAttack>());
  arsenal.push_back(std::make_unique<attacks::InterruptFloodAttack>(60'000.0));
  arsenal.push_back(std::make_unique<attacks::ExceptionFloodAttack>(hog));

  TextTable table({"attack", "phase", "billed(s)", "bill($)", "markup", "detectable_by"});
  table.add_row({"(none)", "-", fmt_double(base.billed_seconds),
                 fmt_double(honest_bill, 6), "-", "-"});
  for (auto& attack : arsenal) {
    const auto r = core::run_experiment(cfg, attack.get());
    const double bill = billing.invoice(r.billed_ticks).amount_dollars;
    std::string detect;
    if (!r.source_verdict.ok) detect = "source integrity";
    if (r.witness != base.witness)
      detect += detect.empty() ? "witness" : " + witness";
    if (detect.empty()) {
      // Purely accounting-level attacks: visible only to better meters.
      detect = r.billed_seconds - r.tsc_seconds > 0.05 ? "tsc/pais meters"
                                                       : "pais meter";
    }
    table.add_row({attack->name(), attack->phase(), fmt_double(r.billed_seconds),
                   fmt_double(bill, 6),
                   fmt_percent_delta((bill / honest_bill - 1.0) * 100.0), detect});
  }
  table.render(std::cout);
  std::cout << "\nEvery attack leaves the program's output correct and the "
               "kernel untouched —\nthe paper's point: the commodity metering "
               "scheme itself is the attack surface.\n";
  return 0;
}
