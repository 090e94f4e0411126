#include "crypto/sha256.hpp"

#include <cstring>

#if defined(__x86_64__)
#include <cpuid.h>
#include <immintrin.h>
#endif

#include "common/ensure.hpp"

namespace mtr::crypto {

namespace {

constexpr std::uint32_t rotr32(std::uint32_t x, int k) {
  return (x >> k) | (x << (32 - k));
}

constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t load_be32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void store_be64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
}

Digest32 digest_of(const std::uint32_t state[8]) {
  Digest32 d;
  for (int i = 0; i < 8; ++i) store_be32(d.bytes.data() + 4 * i, state[i]);
  return d;
}

constexpr std::uint32_t kInit[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                                    0xa54ff53a, 0x510e527f, 0x9b05688c,
                                    0x1f83d9ab, 0x5be0cd19};

}  // namespace

void sha256_compress_portable(std::uint32_t state[8],
                              const std::uint8_t block[64]) {
  std::uint32_t w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = rotr32(w[i - 15], 7) ^ rotr32(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const std::uint32_t s1 = rotr32(w[i - 2], 17) ^ rotr32(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 = rotr32(e, 6) ^ rotr32(e, 11) ^ rotr32(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
    const std::uint32_t s0 = rotr32(a, 2) ^ rotr32(a, 13) ^ rotr32(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#if defined(__x86_64__)
namespace {

/// The SHA-NI compression. The state lives in two registers as ABEF and
/// CDGH; each group of four rounds adds four round constants to four
/// message words and runs two sha256rnds2. The message schedule rotates
/// through msg[0..3]: sha256msg1/msg2 extend it four words at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void compress_shani(
    std::uint32_t state[8], const std::uint8_t block[64]) {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bll, 0x0405060700010203ll);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);                // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);          // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);  // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);       // CDGH
  const __m128i abef = state0;
  const __m128i cdgh = state1;

  __m128i msg[4];
#pragma GCC unroll 16
  for (int i = 0; i < 16; ++i) {
    __m128i& cur = msg[i % 4];
    if (i < 4)
      cur = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(block + 16 * i)),
          kByteSwap);
    __m128i m = _mm_add_epi32(
        cur, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
    state1 = _mm_sha256rnds2_epu32(state1, state0, m);
    if (i >= 3 && i < 15) {
      __m128i& next = msg[(i + 1) % 4];
      next = _mm_add_epi32(next, _mm_alignr_epi8(cur, msg[(i + 3) % 4], 4));
      next = _mm_sha256msg2_epu32(next, cur);
    }
    m = _mm_shuffle_epi32(m, 0x0E);
    state0 = _mm_sha256rnds2_epu32(state0, state1, m);
    if (i >= 1 && i < 13) {
      __m128i& prev = msg[(i + 3) % 4];
      prev = _mm_sha256msg1_epu32(prev, cur);
    }
  }

  state0 = _mm_add_epi32(state0, abef);
  state1 = _mm_add_epi32(state1, cdgh);
  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}

bool cpu_has_shani() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (!__get_cpuid(1, &a, &b, &c, &d)) return false;
  const bool ssse3 = (c & (1u << 9)) != 0;
  const bool sse41 = (c & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &a, &b, &c, &d)) return false;
  return ssse3 && sse41 && (b & (1u << 29)) != 0;
}

}  // namespace
#endif

Sha256Compress sha256_compress_native() {
#if defined(__x86_64__)
  static const Sha256Compress native = cpu_has_shani() ? &compress_shani : nullptr;
  return native;
#else
  return nullptr;
#endif
}

Sha256Compress sha256_compress() {
  static const Sha256Compress chosen = [] {
    const Sha256Compress native = sha256_compress_native();
    return native != nullptr ? native : &sha256_compress_portable;
  }();
  return chosen;
}

Sha256::Sha256() : compress_(sha256_compress()) {
  std::memcpy(state_, kInit, sizeof(state_));
}

void Sha256::update(const std::uint8_t* data, std::size_t len) {
  MTR_ENSURE_MSG(!finished_, "Sha256::update after finish");
  total_len_ += len;
  while (len > 0) {
    if (buffered_ == 0 && len >= 64) {
      compress_(state_, data);
      data += 64;
      len -= 64;
      continue;
    }
    const std::size_t take = std::min<std::size_t>(64 - buffered_, len);
    std::memcpy(buffer_ + buffered_, data, take);
    buffered_ += take;
    data += take;
    len -= take;
    if (buffered_ == 64) {
      compress_(state_, buffer_);
      buffered_ = 0;
    }
  }
}

void Sha256::update(std::string_view s) {
  update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

Digest32 Sha256::finish() {
  MTR_ENSURE_MSG(!finished_, "Sha256::finish called twice");
  const std::uint64_t bit_len = total_len_ * 8;

  std::uint8_t pad[72] = {0x80};
  const std::size_t pad_len = (buffered_ < 56) ? (56 - buffered_) : (120 - buffered_);
  update(pad, pad_len);
  std::uint8_t len_bytes[8];
  store_be64(len_bytes, bit_len);
  update(len_bytes, 8);
  finished_ = true;
  MTR_ENSURE(buffered_ == 0);
  return digest_of(state_);
}

Digest32 sha256(std::string_view s) {
  Sha256 ctx;
  ctx.update(s);
  return ctx.finish();
}

Digest32 sha256(const std::uint8_t* data, std::size_t len) {
  Sha256 ctx;
  ctx.update(data, len);
  return ctx.finish();
}

Digest32 sha256_parts(std::initializer_list<std::string_view> parts) {
  std::size_t len = 0;
  for (const std::string_view p : parts) len += p.size();
  if (len > 55) {
    Sha256 ctx;
    for (const std::string_view p : parts) ctx.update(p);
    return ctx.finish();
  }
  // Message, the 0x80 terminator, zeros, then the bit length: one block.
  std::uint8_t block[64] = {};
  std::size_t at = 0;
  for (const std::string_view p : parts) {
    if (!p.empty()) std::memcpy(block + at, p.data(), p.size());
    at += p.size();
  }
  block[len] = 0x80;
  store_be64(block + 56, static_cast<std::uint64_t>(len) * 8);
  std::uint32_t state[8];
  std::memcpy(state, kInit, sizeof(state));
  sha256_compress()(state, block);
  return digest_of(state);
}

}  // namespace mtr::crypto
