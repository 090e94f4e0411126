// A small strict recursive-descent JSON parser shared by the dist-layer
// readers: the metrics.json parser (dist/metrics.cpp) and the mtr_inspect
// trace-file reader. Its string scanner and decoder also serve the record
// tokenizer (dist/records), so every JSON string is read one way. Numbers keep their raw token so uint64 counters
// survive values a double round-trip would corrupt; anything outside the
// closed grammar our writers emit is rejected with an offset-stamped error.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mtr::dist::json {

/// A parsed JSON value.
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  // raw number token, or decoded string
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> fields;

  const Value* find(std::string_view name) const {
    for (const auto& [k, v] : fields)
      if (k == name) return &v;
    return nullptr;
  }
};

/// The end of the JSON string whose opening quote is at text[from]: the
/// index just past its closing quote, or npos when it never closes.
/// Escapes are stepped over here and checked by decode_string.
std::size_t skip_string(std::string_view text, std::size_t from);

/// Appends the text a JSON string's body (the bytes between its quotes)
/// spells to `out`. Returns nullptr, or why the body is malformed: an
/// unknown escape, a bad, truncated or non-ASCII \u escape, or a dangling
/// backslash.
const char* decode_string(std::string_view body, std::string& out);

/// Parses one complete JSON document; throws std::runtime_error with the
/// byte offset on malformed input or trailing bytes.
Value parse_document(std::string_view text);

// Typed field access over object Values; errors name the missing or
// mistyped field.
const Value& require(const Value& obj, std::string_view name);
std::uint64_t get_u64(const Value& obj, std::string_view name);
double get_f64(const Value& obj, std::string_view name);
std::string get_string(const Value& obj, std::string_view name);
const Value& get_array(const Value& obj, std::string_view name);
const Value& get_object(const Value& obj, std::string_view name);

// Scalar conversions of a bare number Value (array elements).
std::uint64_t as_u64(const Value& v, std::string_view what);
std::int64_t as_i64(const Value& v, std::string_view what);
double as_f64(const Value& v, std::string_view what);

}  // namespace mtr::dist::json
