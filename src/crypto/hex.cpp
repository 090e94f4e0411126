#include "crypto/digest.hpp"

#include "common/ensure.hpp"

namespace mtr::crypto {

void append_hex(std::string& out, const std::uint8_t* data, std::size_t len) {
  static constexpr char kHex[] = "0123456789abcdef";
  for (std::size_t i = 0; i < len; ++i) {
    out += kHex[data[i] >> 4];
    out += kHex[data[i] & 0xf];
  }
}

std::string to_hex(const std::uint8_t* data, std::size_t len) {
  std::string out;
  out.reserve(len * 2);
  append_hex(out, data, len);
  return out;
}

namespace {
int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  throw ConfigError(std::string("invalid hex character: ") + c);
}
}  // namespace

template <std::size_t N>
Digest<N> digest_from_hex(std::string_view hex) {
  if (hex.size() != 2 * N)
    throw ConfigError("hex digest length " + std::to_string(hex.size()) +
                      " != " + std::to_string(2 * N));
  Digest<N> d;
  for (std::size_t i = 0; i < N; ++i) {
    d.bytes[i] = static_cast<std::uint8_t>((hex_nibble(hex[2 * i]) << 4) |
                                           hex_nibble(hex[2 * i + 1]));
  }
  return d;
}

template Digest<32> digest_from_hex<32>(std::string_view);

}  // namespace mtr::crypto
