#include "core/integrity.hpp"

#include <algorithm>

#include "common/ensure.hpp"

namespace mtr::core {

const std::vector<kernel::CodeMapping> SourceIntegrityMonitor::kEmptyLog{};

void SourceIntegrityMonitor::allow(std::string content_tag) {
  whitelist_.insert(std::move(content_tag));
}

void SourceIntegrityMonitor::on_code_mapped(Cycles, Tgid space,
                                            const kernel::CodeMapping& mapping) {
  logs_[space].push_back(mapping);
  // PCR extend: pcr = H(pcr || H(object || NUL || content_tag)).
  crypto::Sha256 m;
  m.update(mapping.object);
  m.update(std::string_view("\0", 1));
  m.update(mapping.content_tag);
  const crypto::Digest32 measurement = m.finish();
  crypto::Digest32& pcr = pcrs_[space];
  crypto::Sha256 h;
  h.update(pcr.bytes.data(), pcr.size());
  h.update(measurement.bytes.data(), measurement.size());
  pcr = h.finish();
}

SourceIntegrityMonitor::Verdict SourceIntegrityMonitor::verify(Tgid space) const {
  Verdict v;
  const auto it = logs_.find(space);
  if (it == logs_.end()) return v;  // nothing mapped, nothing violated
  for (const kernel::CodeMapping& m : it->second) {
    if (!whitelist_.contains(m.content_tag)) {
      v.ok = false;
      v.violations.push_back(m.object + " (" + m.content_tag + ")");
    }
  }
  return v;
}

crypto::Digest32 SourceIntegrityMonitor::pcr(Tgid space) const {
  const auto it = pcrs_.find(space);
  return it == pcrs_.end() ? crypto::Digest32{} : it->second;
}

const std::vector<kernel::CodeMapping>& SourceIntegrityMonitor::log(Tgid space) const {
  const auto it = logs_.find(space);
  return it == logs_.end() ? kEmptyLog : it->second;
}

// ---------------------------------------------------------------------------

bool ExecutionIntegrityMonitor::watched(Tgid tgid) const {
  return std::find(watch_.begin(), watch_.end(), tgid) != watch_.end();
}

void ExecutionIntegrityMonitor::watch(Tgid tgid) {
  MTR_ENSURE_MSG(tgid.valid(), "cannot watch " << tgid);
  if (watched(tgid)) return;
  if (watch_.empty()) {
    // Until now every group was chained; keep only this group's chains.
    for (ThreadChain& tc : threads_) {
      if (!tc.tgid.valid() || tc.tgid == tgid) continue;
      dropped_max_ = std::max(dropped_max_, tc.tgid.v);
      tc = ThreadChain{};
    }
  } else {
    MTR_ENSURE_MSG(tgid.v > dropped_max_,
                   "cannot watch " << tgid << ": steps of tgid" << dropped_max_
                                   << " or older may already be unchained");
  }
  watch_.push_back(tgid);
}

void ExecutionIntegrityMonitor::on_step_begin(Cycles, Pid pid, Tgid tgid,
                                              std::string_view kind_name,
                                              std::string_view tag) {
  if (!watch_.empty() && !watched(tgid)) {
    dropped_max_ = std::max(dropped_max_, tgid.v);
    return;
  }
  ThreadChain& tc = threads_[pid];
  tc.tgid = tgid;
  crypto::Sha256 h;
  h.update(tc.chain.bytes.data(), tc.chain.size());
  h.update(kind_name);
  h.update("\x1f");
  h.update(tag);
  tc.chain = h.finish();
  ++tc.steps;
}

void ExecutionIntegrityMonitor::ensure_recorded(Tgid tgid) const {
  MTR_ENSURE_MSG(watch_.empty() || watched(tgid),
                 tgid << " is not watched, so its steps were never chained");
}

crypto::Digest32 ExecutionIntegrityMonitor::witness(Tgid tgid) const {
  ensure_recorded(tgid);
  // Collect per-thread chains belonging to the group and combine them in
  // digest order (scheduling-independent, pid-assignment-independent).
  std::vector<crypto::Digest32> chains;
  for (const ThreadChain& tc : threads_)
    if (tc.tgid == tgid) chains.push_back(tc.chain);
  std::sort(chains.begin(), chains.end(),
            [](const auto& a, const auto& b) { return a.bytes < b.bytes; });
  crypto::Sha256 h;
  for (const auto& c : chains) h.update(c.bytes.data(), c.size());
  return h.finish();
}

std::size_t ExecutionIntegrityMonitor::chains() const {
  return static_cast<std::size_t>(std::count_if(
      threads_.begin(), threads_.end(),
      [](const ThreadChain& tc) { return tc.tgid.valid(); }));
}

std::uint64_t ExecutionIntegrityMonitor::step_count(Tgid tgid) const {
  ensure_recorded(tgid);
  std::uint64_t total = 0;
  for (const ThreadChain& tc : threads_)
    if (tc.tgid == tgid) total += tc.steps;
  return total;
}

}  // namespace mtr::core
