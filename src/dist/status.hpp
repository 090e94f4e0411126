// The mtr_sweep --status-file heartbeat: a small JSON snapshot of a long
// sweep's health (cells done/total, elapsed, ETA, per-worker busy
// fractions), rewritten after every completed cell. Written via a
// same-directory temp file plus an atomic rename, so external monitors
// (and the future fleet controller's health checks) never read a torn
// half-written document.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace mtr::dist {

/// One heartbeat. `sweep` is the sweep currently running; counts cover its
/// active progress span.
struct StatusSnapshot {
  std::string sweep;
  std::uint64_t cells_done = 0;
  std::uint64_t cells_total = 0;
  double elapsed_seconds = 0.0;
  std::optional<double> eta_seconds;  // nullopt renders as JSON null
  /// Per-worker busy fraction (busy seconds / pool wall seconds) of the
  /// running BatchRunner invocation, one entry per pool thread.
  std::vector<double> worker_busy_fraction;
};

/// Serializes `s` as one JSON object (trailing newline included).
std::string render_status_json(const StatusSnapshot& s);

/// Creates the missing directories above `path`.
void create_parent_dirs(const std::string& path);

/// Writes `bytes` to `path` + ".tmp", then renames it over `path`, so a
/// reader sees the old file or the new one, never a prefix. Creates missing
/// parent directories. Throws
/// std::runtime_error naming the "<label> file" on failure.
void publish_file(const std::string& path, std::string_view bytes,
                  std::string_view label);
/// Same, with the contents streamed by `write` into the temp file.
void publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write,
                  std::string_view label);

/// The whole file at `path`, the reading side of publish_file. Throws
/// std::runtime_error "<path>: cannot open <label> file" on failure.
std::string read_file(const std::string& path, std::string_view label);

/// publish_file of render_status_json(s).
void write_status_file(const std::string& path, const StatusSnapshot& s);

/// Parses a heartbeat document written by write_status_file. Throws
/// std::runtime_error on malformed JSON or missing fields.
StatusSnapshot read_status_file(const std::string& path);

/// The one definition of "stale" shared by every heartbeat consumer — the
/// mtr_fleet supervisor's hung-shard detector and `mtr_inspect
/// --status-file` must agree, or a shard the inspector calls healthy could
/// be one the supervisor is about to kill.
inline constexpr double kDefaultStaleAfterSeconds = 30.0;

/// True when a heartbeat `age_seconds` old has gone stale against
/// `threshold_seconds`. A non-positive threshold disables the check.
inline bool heartbeat_stale(double age_seconds, double threshold_seconds) {
  return threshold_seconds > 0.0 && age_seconds > threshold_seconds;
}

/// Seconds since `path` was last rewritten (mtime age), or nullopt when the
/// file does not exist yet. Clamped at zero against clock skew.
std::optional<double> status_file_age_seconds(const std::string& path);

}  // namespace mtr::dist
