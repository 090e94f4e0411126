#include "core/trusted_metering.hpp"

#include "common/ensure.hpp"

namespace mtr::core {

const char* to_string(BillingMeter m) {
  switch (m) {
    case BillingMeter::kTick: return "tick";
    case BillingMeter::kTsc: return "tsc";
    case BillingMeter::kPais: return "pais";
  }
  return "?";
}

TrustedMeteringService::TrustedMeteringService(Tariff tariff, CpuHz cpu, TimerHz hz,
                                               std::uint64_t tpm_seed)
    : tpm_(tpm_seed), billing_(tariff, cpu, hz) {}

void TrustedMeteringService::attach(kernel::Kernel& kernel) {
  MTR_ENSURE_MSG(!attached_, "service already attached");
  attached_ = true;
  kernel.add_hook(&tick_);
  kernel.add_hook(&tsc_);
  kernel.add_hook(&pais_);
  kernel.add_hook(&source_);
  kernel.add_hook(&execution_);
}

void TrustedMeteringService::allow_code(std::string content_tag) {
  source_.allow(std::move(content_tag));
}

void TrustedMeteringService::meter(Tgid job) { execution_.watch(job); }

Invoice TrustedMeteringService::invoice(Tgid job, BillingMeter meter) const {
  switch (meter) {
    case BillingMeter::kTick:
      return billing_.invoice(tick_.usage(job), "tick");
    case BillingMeter::kTsc:
      return billing_.invoice(tsc_.usage(job), "tsc");
    case BillingMeter::kPais:
      return billing_.invoice(pais_.usage(job), "pais");
  }
  throw ConfigError("unknown billing meter");
}

SignedUsageReport TrustedMeteringService::report(Tgid job, BillingMeter meter,
                                                 std::uint64_t nonce) {
  SignedUsageReport r;
  r.invoice = invoice(job, meter);
  r.nonce = nonce;

  // Bind the job's code measurements and control-flow witness into PCR[0],
  // then quote the invoice payload against it.
  const crypto::Digest32 src_pcr = source_.pcr(job);
  const crypto::Digest32 witness = execution_.witness(job);
  tpm_.extend(0, src_pcr);
  tpm_.extend(0, witness);
  std::string payload = BillingEngine::payload_of(r.invoice);
  payload += ";witness=" + crypto::to_hex(witness);
  payload += ";srcpcr=" + crypto::to_hex(src_pcr);
  r.quote = tpm_.quote(0, nonce, std::move(payload));
  return r;
}

}  // namespace mtr::core
