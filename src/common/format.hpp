// JSON literals for every emitter: the result sinks, metrics.json, status
// heartbeats and Perfetto traces. The append_* forms write straight into a
// caller's reused buffer; the string forms wrap them. The string and
// value readers beside them serve every JSON reader: the record walker
// (report/result_sink), dist::parse_json_line and the document parser
// (dist/json).
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

/// The end of the JSON string whose opening quote is at text[from]: the
/// index just past its closing quote, or npos when it never closes.
/// Escapes are stepped over here and checked by decode_json_string.
std::size_t skip_json_string(std::string_view text, std::size_t from);

/// The end of the JSON value that begins at text[from]: a string, an
/// object whose values are strings, objects or scalars, or a scalar running
/// to the next comma or brace. npos when it is malformed or unterminated.
/// The token grammar of every one-line record reader.
std::size_t skip_json_value(std::string_view text, std::size_t from);

/// Appends the text a JSON string's body (the bytes between its quotes)
/// spells to `out`. Returns nullptr, or why the body is malformed: an
/// unknown escape, a bad, truncated or non-ASCII \u escape, or a dangling
/// backslash.
const char* decode_json_string(std::string_view body, std::string& out);

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
