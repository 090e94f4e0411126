// The record columns of one run as the structs spell them: the test-side
// statement of the run record's schema (key order included) that the sink
// and renderer tests check their output against, written field by field
// rather than through the encoder's field visitors.
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/batch_runner.hpp"
#include "common/format.hpp"
#include "crypto/digest.hpp"
#include "report/cell_key.hpp"
#include "report/result_sink.hpp"
#include "workloads/workloads.hpp"

namespace mtr::test {

/// One record column as run `seed_i` of a cell must hold it: its key and
/// exact text, or for a double its value (compared after a strtod, so the
/// check does not restate %.17g).
struct Want {
  std::string key;
  std::string text;
  std::optional<double> number;
};

/// Run `seed_i` of `cell`'s record, column by column in schema order,
/// written out from the ExperimentResult and CellKey values — not through
/// the encoder's field visitors.
inline std::vector<Want> expected_run(const std::string& sweep,
                                      const core::CellStats& cell,
                                      std::size_t seed_i) {
  const core::ExperimentResult& r = cell.runs.at(seed_i);
  const report::CellKey k = report::cell_key(sweep, cell.cell_index, cell);
  std::vector<Want> w;
  const auto text = [&w](const char* key, std::string v) {
    w.push_back({key, std::move(v), std::nullopt});
  };
  const auto num = [&w](const char* key, double v) { w.push_back({key, "", v}); };
  const auto integer = [&](const char* key, auto v) { text(key, std::to_string(v)); };
  const auto flag = [&](const char* key, bool v) { text(key, v ? "true" : "false"); };
  std::string violations;
  for (const std::string& v : r.source_verdict.violations)
    violations += (violations.empty() ? "" : "; ") + v;

  integer("schema", report::kSchemaVersion);
  text("sweep", k.sweep);
  integer("cell_index", k.cell_index);
  text("attack", k.attack);
  text("scheduler", k.scheduler);
  integer("hz", k.hz);
  integer("cpu_hz", k.cpu_hz);
  integer("ram_frames", k.ram_frames);
  integer("reclaim_batch", k.reclaim_batch);
  text("ptrace", k.ptrace);
  flag("jiffy_timers", k.jiffy_timers);
  integer("seed", cell.seeds.at(seed_i));
  integer("seed_index", seed_i);
  text("workload", workloads::short_name(r.kind));
  text("attack_name", r.attack_name);
  integer("victim_pid", r.victim_pid.v);
  integer("victim_tgid", r.victim_tgid.v);
  flag("victim_exited", r.victim_exited);
  num("wall_seconds", r.wall_seconds);
  integer("billed_utime_ticks", r.billed_ticks.utime.v);
  integer("billed_stime_ticks", r.billed_ticks.stime.v);
  num("billed_user_seconds", r.billed_user_seconds);
  num("billed_system_seconds", r.billed_system_seconds);
  num("billed_seconds", r.billed_seconds);
  integer("true_user_cycles", r.true_cycles.user.v);
  integer("true_system_cycles", r.true_cycles.system.v);
  num("true_seconds", r.true_seconds);
  integer("tsc_user_cycles", r.tsc_cycles.user.v);
  integer("tsc_system_cycles", r.tsc_cycles.system.v);
  num("tsc_seconds", r.tsc_seconds);
  integer("pais_user_cycles", r.pais_cycles.user.v);
  integer("pais_system_cycles", r.pais_cycles.system.v);
  num("pais_seconds", r.pais_seconds);
  num("overcharge", r.overcharge);
  flag("source_ok", r.source_verdict.ok);
  text("source_violations", violations);
  text("witness", crypto::to_hex(r.witness));
  integer("witness_steps", r.witness_steps);
  integer("minor_faults", r.minor_faults);
  integer("major_faults", r.major_faults);
  integer("debug_exceptions", r.debug_exceptions);
  integer("voluntary_switches", r.voluntary_switches);
  integer("involuntary_switches", r.involuntary_switches);
  integer("nic_packets", r.nic_packets);
  flag("has_attacker", r.has_attacker);
  integer("attacker_utime_ticks", r.attacker_ticks.utime.v);
  integer("attacker_stime_ticks", r.attacker_ticks.stime.v);
  num("attacker_billed_seconds", r.attacker_billed_seconds);
  integer("attacker_true_user_cycles", r.attacker_true_cycles.user.v);
  integer("attacker_true_system_cycles", r.attacker_true_cycles.system.v);
  num("attacker_true_seconds", r.attacker_true_seconds);
  integer("population", k.population);
  num("attacker_fraction", k.attacker_fraction);
  integer("victim_nice", k.victim_nice);
  integer("attacker_nice", k.attacker_nice);
  integer("pop_tenants", r.pop_tenants);
  integer("pop_attackers", r.pop_attackers);
  integer("pop_flagged_attackers", r.pop_flagged_attackers);
  integer("pop_flagged_honest", r.pop_flagged_honest);
  num("pop_billing_error_mean", r.pop_billing_error_mean);
  num("pop_billing_error_p99", r.pop_billing_error_p99);
  num("pop_attacker_advantage_mean", r.pop_attacker_advantage_mean);
  num("pop_detection_tpr", r.pop_detection_tpr);
  num("pop_detection_fpr", r.pop_detection_fpr);
  text("pop_billing_error_sketch", report::encode_sketch(r.pop_billing_error));
  text("pop_billed_sketch", report::encode_sketch(r.pop_billed_seconds));
  text("pop_true_sketch", report::encode_sketch(r.pop_true_seconds));
  text("pop_advantage_sketch", report::encode_sketch(r.pop_attacker_advantage));
  return w;
}

/// Checks one record value, read back as text, against what it must be.
inline void expect_value(const std::string& got, const Want& want) {
  if (want.number) {
    EXPECT_EQ(std::strtod(got.c_str(), nullptr), *want.number) << want.key;
  } else {
    EXPECT_EQ(got, want.text) << want.key;
  }
}

/// One field of a one-line JSON object: its key as written between its
/// quotes and its raw token.
struct JsonField {
  std::string_view key;
  std::string_view token;
};

/// The fields of any one-line JSON object in line order, read with the
/// record token grammar (mtr::skip_json_value) but checked against no
/// layout: the tests' order-keeping oracle for the record walker. nullopt
/// when the line is malformed.
inline std::optional<std::vector<JsonField>> json_fields(std::string_view line) {
  constexpr std::size_t npos = std::string_view::npos;
  std::vector<JsonField> out;
  if (!line.starts_with('{')) return std::nullopt;
  if (line == "{}") return out;
  for (std::size_t i = 1;;) {
    if (i >= line.size() || line[i] != '"') return std::nullopt;
    const std::size_t key_end = skip_json_string(line, i);
    if (key_end == npos || key_end >= line.size() || line[key_end] != ':')
      return std::nullopt;
    const std::size_t end = skip_json_value(line, key_end + 1);
    if (end == npos) return std::nullopt;
    out.push_back({line.substr(i + 1, key_end - i - 2),
                   line.substr(key_end + 1, end - key_end - 1)});
    if (end == line.size() || line[end] != ',')
      return end + 1 == line.size() ? std::optional(out) : std::nullopt;
    i = end + 1;
  }
}

}  // namespace mtr::test
