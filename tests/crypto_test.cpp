// Crypto substrate tests against the published test vectors (RFC 1321
// appendix for MD5, FIPS 180-4 / NIST examples for SHA-2, RFC 4231 for
// HMAC-SHA256).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/ensure.hpp"
#include "crypto/hmac.hpp"
#include "crypto/md5.hpp"
#include "crypto/sha256.hpp"

namespace mtr::crypto {
namespace {

TEST(Md5, Rfc1321Vectors) {
  EXPECT_EQ(to_hex(md5("")), "d41d8cd98f00b204e9800998ecf8427e");
  EXPECT_EQ(to_hex(md5("a")), "0cc175b9c0f1b6a831c399e269772661");
  EXPECT_EQ(to_hex(md5("abc")), "900150983cd24fb0d6963f7d28e17f72");
  EXPECT_EQ(to_hex(md5("message digest")), "f96b697d7cb7938d525a2f31aaf161d0");
  EXPECT_EQ(to_hex(md5("abcdefghijklmnopqrstuvwxyz")),
            "c3fcd3d76192e4007dfb496cca67e13b");
  EXPECT_EQ(to_hex(md5("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz012345678"
                       "9")),
            "d174ab98d277d9f5a5611c2c9f419d9f");
  EXPECT_EQ(to_hex(md5("123456789012345678901234567890123456789012345678901234567890"
                       "12345678901234567890")),
            "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
  const std::string msg(1000, 'x');
  Md5 ctx;
  for (std::size_t i = 0; i < msg.size(); i += 7)
    ctx.update(msg.substr(i, 7));
  EXPECT_EQ(to_hex(ctx.finish()), to_hex(md5(msg)));
}

TEST(Md5, BlockBoundaryLengths) {
  // 55/56/63/64/65 bytes cross the padding boundaries.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    const std::string msg(len, 'q');
    Md5 a;
    a.update(msg);
    Md5 b;
    b.update(msg.substr(0, len / 2));
    b.update(msg.substr(len / 2));
    EXPECT_EQ(a.finish(), b.finish()) << "len=" << len;
  }
}

TEST(Md5, FinishTwiceThrows) {
  Md5 ctx;
  ctx.update("abc");
  (void)ctx.finish();
  EXPECT_THROW((void)ctx.finish(), InvariantError);
}

TEST(Sha256, Fips180Vectors) {
  EXPECT_EQ(to_hex(sha256("")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(to_hex(sha256("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(to_hex(sha256("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk);
  EXPECT_EQ(to_hex(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// --- the two compressions ---------------------------------------------------

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// SHA-256 of `msg` with every block folded by `compress`: the FIPS 180-4
/// padding spelled out independently of Sha256.
std::string hex_with(Sha256Compress compress, const std::string& msg) {
  std::string padded = msg;
  padded.push_back('\x80');
  while (padded.size() % 64 != 56) padded.push_back('\0');
  const std::uint64_t bits = static_cast<std::uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) padded.push_back(static_cast<char>(bits >> (8 * i)));
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  for (std::size_t at = 0; at < padded.size(); at += 64)
    compress(state, reinterpret_cast<const std::uint8_t*>(padded.data() + at));
  Digest32 d;
  for (int i = 0; i < 8; ++i)
    for (int b = 0; b < 4; ++b)
      d.bytes[4 * i + b] = static_cast<std::uint8_t>(state[i] >> (24 - 8 * b));
  return to_hex(d);
}

/// The compressions under test: the portable reference always, SHA-NI when
/// this build and CPU have it.
std::vector<std::pair<const char*, Sha256Compress>> compressions() {
  std::vector<std::pair<const char*, Sha256Compress>> v{
      {"portable", &sha256_compress_portable}};
  if (const Sha256Compress native = sha256_compress_native())
    v.emplace_back("native", native);
  return v;
}

TEST(Sha256Compress, NativeMatchesPortableOnRandomBlocks) {
  const Sha256Compress native = sha256_compress_native();
  if (native == nullptr) GTEST_SKIP() << "this CPU or build has no SHA-NI compression";
  std::uint64_t rng = 2010;
  for (int n = 0; n < 10000; ++n) {
    std::uint32_t state[8];
    std::uint8_t block[64];
    for (std::uint32_t& w : state) w = static_cast<std::uint32_t>(splitmix64(rng));
    for (int i = 0; i < 64; i += 8) {
      const std::uint64_t r = splitmix64(rng);
      std::memcpy(block + i, &r, 8);
    }
    std::uint32_t expect[8];
    std::memcpy(expect, state, sizeof state);
    sha256_compress_portable(expect, block);
    native(state, block);
    ASSERT_EQ(0, std::memcmp(expect, state, sizeof state)) << "block " << n;
  }
}

TEST(Sha256Compress, Fips180VectorsThroughEachCompression) {
  for (const auto& [name, compress] : compressions()) {
    SCOPED_TRACE(name);
    EXPECT_EQ(hex_with(compress, ""),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(hex_with(compress, "abc"),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(hex_with(compress, "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(hex_with(compress, std::string(1000000, 'a')),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
  }
}

TEST(Sha256Compress, DispatchPrefersNative) {
  const Sha256Compress native = sha256_compress_native();
  EXPECT_EQ(sha256_compress(), native != nullptr ? native : &sha256_compress_portable);
}

TEST(Sha256Parts, MatchesIncrementalAtEveryLength) {
  // 0..119 covers the one-block path (≤ 55), the 55/56 padding edge, and
  // the two-block fallback.
  std::uint64_t rng = 7;
  for (std::size_t len = 0; len < 120; ++len) {
    std::string msg(len, '\0');
    for (char& c : msg) c = static_cast<char>(splitmix64(rng));
    const std::string expect = to_hex(sha256(msg));
    const std::string_view v(msg);
    EXPECT_EQ(to_hex(sha256_parts({v})), expect) << "len=" << len;
    const std::size_t a = len / 3, b = len / 2;
    EXPECT_EQ(to_hex(sha256_parts({v.substr(0, a), "", v.substr(a, b - a), v.substr(b)})),
              expect)
        << "len=" << len;
  }
}

TEST(Sha256Parts, DigestPartsAreItsBytes) {
  const Digest32 chain = sha256("chain");
  Sha256 ctx;
  ctx.update(chain.bytes.data(), chain.size());
  ctx.update("step");
  EXPECT_EQ(sha256_parts({as_bytes(chain), "step"}), ctx.finish());
}

TEST(HmacSha256, Rfc4231Vectors) {
  // Case 1.
  EXPECT_EQ(to_hex(hmac_sha256(std::string(20, '\x0b'), "Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
  // Case 2.
  EXPECT_EQ(to_hex(hmac_sha256("Jefe", "what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
  // Case 3.
  EXPECT_EQ(to_hex(hmac_sha256(std::string(20, '\xaa'), std::string(50, '\xdd'))),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
  // Case 6: key longer than one block.
  EXPECT_EQ(to_hex(hmac_sha256(std::string(131, '\xaa'),
                               "Test Using Larger Than Block-Size Key - Hash Key "
                               "First")),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacSha256, KeySensitivity) {
  const auto a = hmac_sha256("key-a", "message");
  const auto b = hmac_sha256("key-b", "message");
  EXPECT_NE(a, b);
}

TEST(DigestUtils, HexRoundTrip) {
  const Digest32 d = sha256("round-trip");
  const Digest32 back = digest_from_hex<32>(to_hex(d));
  EXPECT_EQ(d, back);
}

TEST(DigestUtils, BadHexRejected) {
  EXPECT_THROW(digest_from_hex<32>("zz"), ConfigError);
  EXPECT_THROW(digest_from_hex<16>("abcd"), ConfigError);  // wrong length
}

TEST(DigestUtils, ConstantTimeEqualitySemantics) {
  Digest16 a = md5("x");
  Digest16 b = a;
  EXPECT_EQ(a, b);
  b.bytes[15] ^= 1;
  EXPECT_NE(a, b);
  EXPECT_TRUE(a < b || b < a);
}

}  // namespace
}  // namespace mtr::crypto
