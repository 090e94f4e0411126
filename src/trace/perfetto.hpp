// Chrome/Perfetto trace-event JSON export of a filled Tracer.
//
// Layout: the simulated machine is one trace process (pid 1, named after
// the run label); every simulated process is a thread track (tid = sim
// pid, tid 0 = the idle context). Charged work renders as "X" complete
// spans, engine decisions and roster actions as "i" instants, and tick
// events drive a "C" counter track plotting the victim group's billed
// jiffy-seconds against its cycle-exact ground truth — the cheat-attack
// gap as a widening pair of lines in the Perfetto UI. `otherData` carries
// the schema tag plus the ring's recorded/dropped counters.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "trace/tracer.hpp"

namespace mtr::trace {

struct Telemetry;

inline constexpr const char* kTraceSchemaTag = "mtr-trace-1";
/// The counter track plotting the victim's billed against true seconds.
inline constexpr const char* kVictimTrack = "victim cpu-seconds";
/// Prefix of the counter track each Telemetry gauge series renders as.
inline constexpr const char* kSeriesTrackPrefix = "series:";

/// Run context the exporter needs beyond the event stream.
struct ExportInfo {
  std::string label;                    // trace process name (run identity)
  std::string category;                 // attack name or "baseline"; empty =
                                        // no "cat" field on events
  CpuHz cpu{};                          // cycles -> microseconds conversion
  TimerHz hz{};                         // ticks -> billed seconds
  Tgid victim{};                        // counter-track target; invalid = none
  std::vector<std::pair<Pid, std::string>> process_names;  // thread tracks
};

/// Writes the trace-event JSON. When `telemetry` is non-null, each gauge
/// series additionally renders as a "series:<name>" counter track (one
/// sample per bucket, plotting the bucket average and max).
void write_perfetto_json(std::ostream& os, const Tracer& tracer,
                         const ExportInfo& info,
                         const Telemetry* telemetry = nullptr);

}  // namespace mtr::trace
