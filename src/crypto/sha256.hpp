// SHA-256 (FIPS 180-4). Backbone of the measurement log, PCR extension,
// the execution-integrity witness chain and the HMAC quote mock.
//
// The compression function has two implementations. The portable one is
// the reference and the fallback. On x86-64 CPUs that report the SHA
// extensions (CPUID leaf 7 EBX bit 29) plus SSSE3 and SSE4.1, a SHA-NI
// compression is chosen once, at first use, and every Sha256 and
// sha256_parts call goes through it. Both produce the same state for
// every input; crypto_test cross-checks them on random blocks and on the
// FIPS vectors.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string_view>

#include "crypto/digest.hpp"

namespace mtr::crypto {

/// One SHA-256 compression: folds the 64-byte `block` into `state`.
using Sha256Compress = void (*)(std::uint32_t state[8],
                                const std::uint8_t block[64]);

/// The portable compression (the reference).
void sha256_compress_portable(std::uint32_t state[8],
                              const std::uint8_t block[64]);

/// The SHA-NI compression, or null when this build or this CPU lacks it.
Sha256Compress sha256_compress_native();

/// The compression every SHA-256 in this library uses: the SHA-NI one when
/// sha256_compress_native() offers it, the portable one otherwise.
Sha256Compress sha256_compress();

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256();

  void update(const std::uint8_t* data, std::size_t len);
  void update(std::string_view s);

  /// Finalizes and returns the digest; the context must not be reused after.
  Digest32 finish();

 private:
  Sha256Compress compress_;
  std::uint32_t state_[8];
  std::uint64_t total_len_ = 0;
  std::uint8_t buffer_[64];
  std::size_t buffered_ = 0;
  bool finished_ = false;
};

/// One-shot convenience.
Digest32 sha256(std::string_view s);
Digest32 sha256(const std::uint8_t* data, std::size_t len);

/// SHA-256 of the concatenation of `parts`. An input of 55 bytes or less
/// fits one padded block, which is built in place and compressed once;
/// longer inputs go through Sha256.
Digest32 sha256_parts(std::initializer_list<std::string_view> parts);

/// The digest's bytes, as a part for sha256_parts.
inline std::string_view as_bytes(const Digest32& d) {
  return {reinterpret_cast<const char*>(d.bytes.data()), d.size()};
}

}  // namespace mtr::crypto
