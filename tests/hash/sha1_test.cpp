#include "mhd/hash/sha1.h"

#include <gtest/gtest.h>

#include <string>

namespace mhd {
namespace {

std::string sha1_hex(std::string_view s) { return Sha1::hash(as_bytes(s)).hex(); }

// FIPS 180-1 / RFC 3174 test vectors.
TEST(Sha1, EmptyString) {
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  Sha1 h;
  const std::string block(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(as_bytes(block));
  EXPECT_EQ(h.digest().hex(), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(sha1_hex("The quick brown fox jumps over the lazy dog"),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, IncrementalMatchesOneShot) {
  ByteVec data;
  for (int i = 0; i < 100000; ++i) data.push_back(static_cast<Byte>(i * 31));
  const Digest whole = Sha1::hash(data);

  // Feed in awkward piece sizes crossing block boundaries.
  Sha1 h;
  std::size_t pos = 0;
  std::size_t step = 1;
  while (pos < data.size()) {
    const std::size_t n = std::min(step, data.size() - pos);
    h.update({data.data() + pos, n});
    pos += n;
    step = (step * 7 + 3) % 200 + 1;
  }
  EXPECT_EQ(h.digest(), whole);
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 h;
  h.update(as_bytes("garbage"));
  h.reset();
  h.update(as_bytes("abc"));
  EXPECT_EQ(h.digest().hex(), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, LengthBoundaryCases) {
  // Messages near the 55/56/64-byte padding boundaries.
  for (std::size_t len : {54u, 55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u}) {
    const std::string m(len, 'x');
    Sha1 h;
    h.update(as_bytes(m));
    const Digest d1 = h.digest();
    // Same content in two pieces must agree.
    Sha1 h2;
    h2.update(as_bytes(std::string_view(m).substr(0, len / 2)));
    h2.update(as_bytes(std::string_view(m).substr(len / 2)));
    EXPECT_EQ(h2.digest(), d1) << "len=" << len;
  }
}

TEST(Digest, Prefix64AndZeroCheck) {
  Digest zero{};
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.prefix64(), 0u);
  const Digest d = Sha1::hash(as_bytes("x"));
  EXPECT_FALSE(d.is_zero());
  EXPECT_NE(d.prefix64(), 0u);
}

TEST(Digest, OrderingAndEquality) {
  const Digest a = Sha1::hash(as_bytes("a"));
  const Digest b = Sha1::hash(as_bytes("b"));
  EXPECT_NE(a, b);
  EXPECT_EQ(a, Sha1::hash(as_bytes("a")));
  EXPECT_TRUE(a < b || b < a);
}

}  // namespace
}  // namespace mhd
