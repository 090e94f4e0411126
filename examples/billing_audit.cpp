// Customer-side audit workflow: the provider meters a job and sends a
// TPM-signed usage report; the customer verifies the quote, the code
// measurements, the execution witness and the cross-meter consistency —
// then the same audit against a forged report.
//
//   $ ./billing_audit
#include <iostream>

#include "common/table.hpp"
#include "core/auditor.hpp"
#include "core/experiment.hpp"
#include "core/trusted_metering.hpp"
#include "workloads/stdlibs.hpp"

namespace {

using namespace mtr;

void print_report(const char* title, const core::AuditReport& audit) {
  std::cout << title << "\n";
  for (const auto& f : audit.findings) {
    std::cout << "  [" << (f.ok ? "ok" : "FAIL") << "] " << f.check << ": "
              << f.detail << "\n";
  }
  std::cout << "  => " << (audit.accepted ? "REPORT ACCEPTED" : "REPORT REJECTED")
            << "\n\n";
}

}  // namespace

int main() {
  using namespace mtr;
  const auto kind = workloads::WorkloadKind::kPi;

  // ---- provider side -------------------------------------------------------
  sim::Simulation machine;
  core::TrustedMeteringService service(core::Tariff{0.40},
                                       machine.config().kernel.cpu,
                                       machine.config().kernel.hz);
  for (auto& tag : core::expected_code_tags(kind)) service.allow_code(tag);
  service.attach(machine.kernel());

  const auto job = workloads::make_workload(kind, {0.25});
  const Pid pid = machine.launch(job.image);
  machine.run_until_exit(pid);
  const Tgid group = machine.kernel().process(pid).tgid;

  const std::uint64_t nonce = 0xC0FFEE;  // customer-chosen freshness nonce
  core::SignedUsageReport report =
      service.report(group, core::BillingMeter::kPais, nonce);
  std::cout << "provider reports: " << fmt_double(report.invoice.cpu_seconds)
            << "s CPU => $" << fmt_double(report.invoice.amount_dollars, 6)
            << " (meter: " << report.invoice.meter << ")\n\n";

  // ---- customer side --------------------------------------------------------
  core::AuditExpectations exp;
  exp.tpm_key = service.tpm().verification_key();  // provisioned out of band
  exp.nonce = nonce;
  exp.reference_witness = service.execution_monitor().witness(group);
  core::Auditor auditor(exp);

  const auto source_verdict = service.source_monitor().verify(group);
  const auto witness = service.execution_monitor().witness(group);
  const double tick_s = ticks_to_seconds(service.tick_usage(group).total(),
                                         machine.config().kernel.hz);
  const double fine_s = cycles_to_seconds(service.tsc_usage(group).total(),
                                          machine.config().kernel.cpu);
  const double stime_share =
      cycles_to_seconds(service.tsc_usage(group).system,
                        machine.config().kernel.cpu) /
      std::max(fine_s, 1e-9);

  print_report("== audit of the genuine report ==",
               auditor.audit(report, source_verdict, witness, tick_s, fine_s,
                             stime_share, 0.0));

  // ---- a forged report -------------------------------------------------------
  core::SignedUsageReport forged = report;
  forged.invoice.cpu_seconds *= 3.0;  // provider pads the bill...
  forged.invoice.amount_dollars *= 3.0;
  // ...but cannot re-sign it without the TPM key, and replaying the old
  // quote under a new nonce fails too.
  print_report("== audit of a padded (forged) report ==",
               auditor.audit(forged, source_verdict, witness, tick_s * 3.0, fine_s,
                             stime_share, 0.0));
  return 0;
}
