// Formatting of simulator quantities for people, and of JSON literals for
// the metrics, status and Perfetto emitters.
#pragma once

#include <string>
#include <string_view>

#include "common/types.hpp"

namespace mtr {

/// "12.345s" — cycles rendered as seconds at the given CPU frequency.
std::string fmt_seconds(Cycles c, CpuHz hz, int precision = 3);

/// "1234 ticks (4.936s @250HZ)".
std::string fmt_ticks(Ticks t, TimerHz hz, int precision = 3);

/// "1.23 Gcy" style cycle count with SI prefix.
std::string fmt_cycles(Cycles c);

/// Renders a CpuUsageTicks as "u=1.20s s=0.04s" at the given HZ.
std::string fmt_usage(const CpuUsageTicks& u, TimerHz hz, int precision = 2);

/// Renders a CpuUsageCycles as "u=1.20s s=0.04s" at the given CPU frequency.
std::string fmt_usage(const CpuUsageCycles& u, CpuHz hz, int precision = 2);

/// `s` as a quoted JSON string; control characters become \u00XX, so any
/// input yields valid JSON.
std::string json_quote(std::string_view s);

/// `v` as a round-trippable JSON number (%.17g), so re-emitting a parsed
/// file is byte-stable.
std::string json_number(double v);

}  // namespace mtr
