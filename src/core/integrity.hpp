// The paper's first two trust properties (§VI-B), as monitors.
//
// Source integrity — "only the expected code should be executed in the
// context of a user process": every code object mapped into an address
// space is measured (IMA-style) into a per-job measurement log and a PCR
// hash chain; verification checks the log against a whitelist of expected
// content. Detects the shell attack (tampered bash image inherited by PT)
// and both library attacks (unexpected LD_PRELOAD objects).
//
// Execution integrity — the control flow of the metered job matches a
// reference execution: a witness hash chain over the per-thread step
// sequence, combined order-independently across threads of a group.
// Detects control-flow tampering (and, as a side effect, any injected
// steps). Only the metered groups need a witness, so the monitor can be
// told which groups to watch and then hashes no other group's steps.
#pragma once

#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/dense_table.hpp"
#include "crypto/sha256.hpp"
#include "kernel/accounting.hpp"

namespace mtr::core {

class SourceIntegrityMonitor final : public kernel::AccountingHook {
 public:
  /// Whitelists a content tag (e.g. "libm#2.8-genuine").
  void allow(std::string content_tag);

  void on_code_mapped(Cycles now, Tgid space,
                      const kernel::CodeMapping& mapping) override;

  struct Verdict {
    bool ok = true;
    /// "object (content_tag)" for every measurement not on the whitelist.
    std::vector<std::string> violations;
  };

  /// Checks every measurement of `space` against the whitelist.
  Verdict verify(Tgid space) const;

  /// The PCR value accumulated for `space` (hash chain over measurements).
  crypto::Digest32 pcr(Tgid space) const;

  /// Raw measurement log, for audit display.
  const std::vector<kernel::CodeMapping>& log(Tgid space) const;

 private:
  std::unordered_set<std::string> whitelist_;
  std::unordered_map<Tgid, std::vector<kernel::CodeMapping>> logs_;
  std::unordered_map<Tgid, crypto::Digest32> pcrs_;
  static const std::vector<kernel::CodeMapping> kEmptyLog;
};

/// Chains every group's steps while the watch set is empty. The first
/// watch() drops the chains of every unwatched group; from then on only
/// watched groups are chained, and asking for any other group's witness
/// throws. A tgid never changes after process creation, so a group watched
/// while the set was empty, or before its first step, keeps a chain
/// identical to the one the all-groups monitor records.
class ExecutionIntegrityMonitor final : public kernel::AccountingHook {
 public:
  /// Adds `tgid` to the watch set. Throws if some of the group's steps may
  /// already have gone unchained (the set was non-empty and a group created
  /// at or after `tgid` had a step dropped).
  void watch(Tgid tgid);

  void on_step_begin(Cycles now, Pid pid, Tgid tgid, std::string_view kind_name,
                     std::string_view tag) override;

  /// Group witness: per-thread hash chains combined order-independently
  /// (sorted), so deterministic thread-local behaviour yields a stable
  /// digest regardless of scheduling interleavings.
  crypto::Digest32 witness(Tgid tgid) const;

  /// Steps observed for the group (sanity/reporting).
  std::uint64_t step_count(Tgid tgid) const;

  /// Threads that hold a chain (tests: the watch filter's footprint).
  std::size_t chains() const;

 private:
  bool watched(Tgid tgid) const;
  void ensure_recorded(Tgid tgid) const;

  /// One record per pid; `tgid` stays invalid until the first chained step.
  struct ThreadChain {
    Tgid tgid;
    std::uint64_t steps = 0;
    crypto::Digest32 chain{};  // zero digest = empty chain
  };
  std::vector<Tgid> watch_;  // empty = every group; a handful otherwise
  /// Highest tgid with a step that went unchained (-1: none).
  std::int32_t dropped_max_ = -1;
  DenseTable<Pid, ThreadChain> threads_;
};

}  // namespace mtr::core
