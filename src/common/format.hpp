// JSON literals for every emitter: the result sinks, metrics.json, status
// heartbeats and Perfetto traces.
#pragma once

#include <string>
#include <string_view>

namespace mtr {

/// `s` as a quoted JSON string: quote and backslash are escaped, \n, \r and
/// \t take their short forms and every other control byte becomes \u00XX,
/// so any input yields valid JSON.
std::string json_quote(std::string_view s);

/// `v` as a round-trippable JSON number (%.17g), so re-emitting a parsed
/// file is byte-stable.
std::string json_number(double v);

}  // namespace mtr
