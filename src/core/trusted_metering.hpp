// TrustedMeteringService: the constructive answer to the paper's analysis.
//
// Bundles the three properties of §VI-B into one provider-side service:
//   * source integrity   — SourceIntegrityMonitor + PCR + TPM quote,
//   * execution integrity — ExecutionIntegrityMonitor witness,
//   * fine-grained metering — PaisMeter, plus the kernel's per-process
//     ledger, summed over the job's thread group (Kernel::group_usage), for
//     the cycle-exact TSC bill.
// The commodity tick bill comes from the same ledger. The service attaches
// its three hooks to a kernel, observes a job, and emits a signed usage
// report the customer-side Auditor can verify.
#pragma once

#include <memory>
#include <string>

#include "core/billing.hpp"
#include "core/integrity.hpp"
#include "core/meters.hpp"
#include "core/tpm.hpp"
#include "kernel/kernel.hpp"

namespace mtr::core {

/// Which meter prices the bill.
enum class BillingMeter : std::uint8_t { kTick, kTsc, kPais };

const char* to_string(BillingMeter m);

class TrustedMeteringService {
 public:
  TrustedMeteringService(Tariff tariff, CpuHz cpu, TimerHz hz,
                         std::uint64_t tpm_seed = 0x7a11'5eed);

  /// Registers the PAIS meter and both integrity monitors with the kernel,
  /// whose ledger then prices the tick and TSC bills (so the kernel must
  /// outlive every invoice). Call once, before any launches.
  void attach(kernel::Kernel& kernel);

  /// Whitelists expected code for source-integrity verification.
  void allow_code(std::string content_tag);

  /// Names `job` as a metered group. Once any job is named, the execution
  /// monitor chains only named groups' steps, and only their witnesses can
  /// be read. Every group is chained until the first call, so the first job
  /// may already have run; name each later job before its first step
  /// (ExecutionIntegrityMonitor::watch). Without a call every group is
  /// chained.
  void meter(Tgid job);

  // Meter access. The tick and TSC bills of a group are the attached
  // kernel's ledger columns; asking before attach() throws.
  CpuUsageTicks tick_usage(Tgid tg) const;
  CpuUsageCycles tsc_usage(Tgid tg) const;
  const PaisMeter& pais_meter() const { return pais_; }
  const SourceIntegrityMonitor& source_monitor() const { return source_; }
  const ExecutionIntegrityMonitor& execution_monitor() const { return execution_; }
  const TpmMock& tpm() const { return tpm_; }
  const BillingEngine& billing() const { return billing_; }

  /// Invoice for a job under the selected meter.
  Invoice invoice(Tgid job, BillingMeter meter) const;

  /// Extends PCR[0] with the job's source-measurement digest and quotes the
  /// invoice + integrity evidence under the customer's nonce.
  SignedUsageReport report(Tgid job, BillingMeter meter, std::uint64_t nonce);

 private:
  const kernel::Kernel* kernel_ = nullptr;
  PaisMeter pais_;
  SourceIntegrityMonitor source_;
  ExecutionIntegrityMonitor execution_;
  TpmMock tpm_;
  BillingEngine billing_;
};

}  // namespace mtr::core
