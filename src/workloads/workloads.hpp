// The paper's four victim programs as behaviour models (§V-A):
//
//   O — "Our program": a CPU-bound loop family (the paper uses ~2^34
//       iterations); one hot loop-control variable.
//   P — "Pi": an open-source pi calculator; long arithmetic over digit
//       arrays with periodic malloc() calls; hot accumulation variable `y`
//       (paper: ~10^7 accesses).
//   W — "Whetstone": the classic synthetic FP benchmark; dense libm calls
//       (sqrt/exp/sin); hot variable `T1` (paper: ~2×10^5 accesses).
//   B — "Brute": multi-threaded MD5 brute-force cracker; spawns worker
//       threads scheduled as processes; hot per-thread counter in
//       crack_len() (paper: ~895k accesses with PER_THREAD_TRIES=50).
//
// Durations are scaled (tens of virtual seconds instead of hundreds) and
// hot-access counts scaled ~10× down so attacked runs stay fast; the
// scaling is uniform, so attack/baseline ratios are preserved. See
// DESIGN.md §7.
#pragma once

#include <cstdint>
#include <string>

#include "exec/loader.hpp"

namespace mtr::workloads {

enum class WorkloadKind : std::uint8_t { kOurs, kPi, kWhetstone, kBrute };

/// "O", "P", "W", "B" — the paper's shorthand.
const char* short_name(WorkloadKind k);
const char* long_name(WorkloadKind k);

struct WorkloadParams {
  /// Uniform work multiplier: 1.0 gives the default durations below; tests
  /// use small fractions.
  double scale = 1.0;
  /// Brute worker thread count (the paper's Brute "spawns many threads").
  unsigned brute_threads = 8;
};

/// Everything an experiment needs to launch and attack one workload.
struct WorkloadInfo {
  WorkloadKind kind;
  exec::ImageSpec image;
  /// Address of the program's hot variable — what the thrashing attack
  /// programs into DR0 (loop counter / y / T1 / count).
  VAddr hot_addr;
  /// Approximate baseline duration in cycles at scale=1 (for sizing runs).
  Cycles nominal_cycles;
};

/// Builds the image spec for one of the paper's four programs.
WorkloadInfo make_workload(WorkloadKind kind, const WorkloadParams& params = {});

}  // namespace mtr::workloads
