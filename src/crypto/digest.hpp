// Fixed-size digest value type shared by all hash implementations.
#pragma once

#include <array>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mtr::crypto {

/// An N-byte message digest with value semantics and constant-time equality.
template <std::size_t N>
struct Digest {
  std::array<std::uint8_t, N> bytes{};

  static constexpr std::size_t size() { return N; }

  /// Constant-time comparison; digests are authenticator material.
  friend bool operator==(const Digest& a, const Digest& b) {
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < N; ++i) acc |= static_cast<std::uint8_t>(a.bytes[i] ^ b.bytes[i]);
    return acc == 0;
  }
  friend bool operator!=(const Digest& a, const Digest& b) { return !(a == b); }

  /// Lexicographic order for use as map keys (not constant time).
  friend auto operator<=>(const Digest& a, const Digest& b) { return a.bytes <=> b.bytes; }
};

using Digest16 = Digest<16>;  // MD5
using Digest32 = Digest<32>;  // SHA-256

/// Lowercase hex encoding of arbitrary bytes.
std::string to_hex(const std::uint8_t* data, std::size_t len);

template <std::size_t N>
std::string to_hex(const Digest<N>& d) {
  return to_hex(d.bytes.data(), N);
}

/// Parses lowercase/uppercase hex; throws mtr::ConfigError on malformed input
/// or length mismatch.
template <std::size_t N>
Digest<N> digest_from_hex(std::string_view hex);

}  // namespace mtr::crypto
