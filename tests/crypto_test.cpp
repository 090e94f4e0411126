// Crypto substrate tests against the published test vectors (RFC 1321
// appendix for MD5, FIPS 180-4 / NIST examples for SHA-2, RFC 4231 for
// HMAC-SHA256).
#include <gtest/gtest.h>

#include <string>

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
