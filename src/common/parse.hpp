// Strict full-match numeric parsing, shared by every surface that turns
// untrusted text into numbers: record scanners (src/dist), the JSON
// reader's number tokens (metrics and status documents), shard specs, CLI
// flags, and environment defaults. std::from_chars semantics — no
// leading whitespace or '+', no locale, no "0x" prefixes, no trailing
// garbage, overflow is a failure — so "12abc", " 12", "+0x1f" and a
// negative fed to an unsigned parse all come back nullopt instead of a
// silently wrong value.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

namespace mtr {

/// Parses all of `s` as an integer of type T (decimal only); nullopt on
/// empty input, any non-digit (sign rules per std::from_chars), trailing
/// characters, or overflow.
template <typename T>
std::optional<T> parse_number(std::string_view s) {
  T v{};
  const char* last = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), last, v);
  if (s.empty() || r.ec != std::errc{} || r.ptr != last) return std::nullopt;
  return v;
}

/// Strict non-negative decimal — the one integer parser behind record
/// scanning, shard specs, and numeric CLI flags.
inline std::optional<std::uint64_t> parse_u64(std::string_view s) {
  return parse_number<std::uint64_t>(s);
}

/// Parses all of `s` as a double (std::chars_format::general: decimal or
/// scientific, "inf"/"nan" accepted, hex floats and trailing garbage not).
/// Subnormals parse exactly; a value whose magnitude rounds to infinity
/// or to zero is out of range.
inline std::optional<double> parse_f64(std::string_view s) {
  double v{};
  const char* last = s.data() + s.size();
  const std::from_chars_result r = std::from_chars(s.data(), last, v);
  if (s.empty() || r.ec != std::errc{} || r.ptr != last) return std::nullopt;
  return v;
}

}  // namespace mtr
