// JSON literals for every emitter: the result sinks, metrics.json, status
// heartbeats and Perfetto traces. The append_* forms write straight into a
// caller's reused buffer; the string forms wrap them.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace mtr {

/// Appends `s` as a quoted JSON string: quote and backslash are escaped,
/// \n, \r and \t take their short forms and every other control byte
/// becomes \u00XX, so any input yields valid JSON.
void append_json_quoted(std::string& out, std::string_view s);
std::string json_quote(std::string_view s);

/// Appends `v` exactly as printf's "%.17g" renders it in the C locale
/// (std::to_chars, general format, precision 17): round-trippable, so
/// re-emitting a parsed file is byte-stable. inf and nan print as
/// inf/-inf/nan/-nan.
void append_number(std::string& out, double v);
std::string json_number(double v);

/// Appends the decimal digits of `v`, as std::to_string spells them.
void append_number(std::string& out, std::uint64_t v);
void append_number(std::string& out, std::int64_t v);

}  // namespace mtr
