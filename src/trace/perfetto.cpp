#include "trace/perfetto.hpp"

#include <cstdio>
#include <ostream>

#include "common/format.hpp"
#include "trace/series.hpp"

namespace mtr::trace {
namespace {

constexpr std::int32_t kTraceProcess = 1;  // the one simulated machine

/// Microseconds on the trace timeline; %.3f keeps sub-cycle resolution at
/// GHz clocks without drowning the file in digits.
std::string usec(Cycles c, CpuHz cpu) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f",
                static_cast<double>(c.v) * 1e6 / static_cast<double>(cpu.v));
  return buf;
}

std::string json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

void metadata(std::ostream& os, const char* name, std::int32_t tid,
              const std::string& value) {
  os << "{\"ph\": \"M\", \"pid\": " << kTraceProcess << ", \"tid\": " << tid
     << ", \"name\": \"" << name << "\", \"args\": {\"name\": "
     << json_quote(value) << "}},\n";
}

}  // namespace

void write_perfetto_json(std::ostream& os, const Tracer& tracer,
                         const ExportInfo& info, const Telemetry* telemetry) {
  // Optional event category ("cat"), emitted right after "ph" so the
  // terminator's "name" stays the object's last key either way.
  const std::string cat =
      info.category.empty() ? "" : ", \"cat\": " + json_quote(info.category);
  os << "{\"traceEvents\": [\n";
  metadata(os, "process_name", 0, info.label);
  metadata(os, "thread_name", 0, "idle");
  for (const auto& [pid, name] : info.process_names)
    metadata(os, "thread_name", pid.v,
             name + " (pid " + std::to_string(pid.v) + ")");

  // Running billed-vs-true series for the victim group, sampled at ticks:
  // billed jumps a whole jiffy per landing, truth accrues per charged span.
  double billed_seconds = 0.0;
  double true_seconds = 0.0;
  const bool counter = info.victim.valid();

  tracer.for_each([&](const TraceEvent& e) {
    const std::int32_t tid = e.pid.valid() ? e.pid.v : 0;
    switch (e.kind) {
      case TraceEventKind::kSpan: {
        const Cycles start = e.ts - Cycles{e.arg};
        os << "{\"ph\": \"X\"" << cat << ", \"pid\": " << kTraceProcess
           << ", \"tid\": " << tid << ", \"ts\": " << usec(start, info.cpu)
           << ", \"dur\": " << usec(Cycles{e.arg}, info.cpu) << ", \"name\": "
           << json_quote(e.name) << ", \"args\": {\"cycles\": " << e.arg;
        if (e.arg2 >= 0) os << ", \"beneficiary\": " << e.arg2;
        os << "}},\n";
        if (counter && e.tgid == info.victim)
          true_seconds +=
              static_cast<double>(e.arg) / static_cast<double>(info.cpu.v);
        break;
      }
      case TraceEventKind::kInstant:
        os << "{\"ph\": \"i\"" << cat << ", \"pid\": " << kTraceProcess
           << ", \"tid\": " << tid << ", \"ts\": " << usec(e.ts, info.cpu)
           << ", \"s\": \"t\", \"name\": " << json_quote(e.name) << "},\n";
        break;
      case TraceEventKind::kTick: {
        os << "{\"ph\": \"i\"" << cat << ", \"pid\": " << kTraceProcess
           << ", \"tid\": " << tid << ", \"ts\": " << usec(e.ts, info.cpu)
           << ", \"s\": \"t\", \"name\": \"tick\", \"args\": {\"count\": "
           << e.arg << ", \"mode\": \""
           << to_string(static_cast<CpuMode>(e.mode)) << "\"}},\n";
        if (counter) {
          if (e.tgid == info.victim)
            billed_seconds += static_cast<double>(e.arg) /
                              static_cast<double>(info.hz.v);
          os << "{\"ph\": \"C\"" << cat << ", \"pid\": " << kTraceProcess
             << ", \"ts\": " << usec(e.ts, info.cpu)
             << ", \"name\": \"victim cpu-seconds\", \"args\": {\"billed\": "
             << json_double(billed_seconds)
             << ", \"true\": " << json_double(true_seconds) << "}},\n";
        }
        break;
      }
    }
  });

  // Telemetry gauge series as counter tracks: one sample per time bucket,
  // at the bucket's start, plotting the bucket average and max.
  if (telemetry != nullptr) {
    telemetry->for_each_series([&](const char* name, const TimeSeries& s) {
      for (std::size_t i = 0; i < s.size(); ++i) {
        const SeriesBucket& b = s.bucket(i);
        if (b.count == 0) continue;
        os << "{\"ph\": \"C\"" << cat << ", \"pid\": " << kTraceProcess
           << ", \"ts\": " << usec(Cycles{s.width() * i}, info.cpu)
           << ", \"name\": \"series:" << name << "\", \"args\": {\"avg\": "
           << json_double(static_cast<double>(b.sum) /
                          static_cast<double>(b.count))
           << ", \"max\": " << b.max << "}},\n";
      }
    });
  }

  // Terminator instant so the array needs no trailing-comma bookkeeping.
  os << "{\"ph\": \"i\"" << cat << ", \"pid\": " << kTraceProcess
     << ", \"tid\": 0, \"ts\": 0, \"s\": \"g\", \"name\": \"trace-export\"}\n";
  os << "], \"otherData\": {\"schema\": \"" << kTraceSchemaTag
     << "\", \"recorded\": " << tracer.recorded()
     << ", \"dropped\": " << tracer.dropped()
     << ", \"cpu_hz\": " << info.cpu.v << ", \"timer_hz\": " << info.hz.v
     << "}}\n";
}

}  // namespace mtr::trace
