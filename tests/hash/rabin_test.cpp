#include "mhd/hash/rabin.h"

#include <gtest/gtest.h>

#include "mhd/util/random.h"

namespace mhd {
namespace {

ByteVec random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  ByteVec out(n);
  for (auto& b : out) b = static_cast<Byte>(rng());
  return out;
}

TEST(PolyDegree, Basics) {
  EXPECT_EQ(poly_degree(0), -1);
  EXPECT_EQ(poly_degree(1), 0);
  EXPECT_EQ(poly_degree(0b1000), 3);
  EXPECT_EQ(poly_degree(RabinFingerprint::kDefaultPoly), 63);
}

TEST(PolyModShifted, ReducesBelowDegree) {
  const std::uint64_t p = RabinFingerprint::kDefaultPoly;
  for (std::uint64_t v : {1ULL, 0xFFULL, 0xABCDULL}) {
    const std::uint64_t r = poly_mod_shifted(v, 63, p);
    EXPECT_LT(poly_degree(r), 63);
  }
}

TEST(PolyModShifted, ZeroShiftSmallValueIsIdentity) {
  const std::uint64_t p = RabinFingerprint::kDefaultPoly;
  EXPECT_EQ(poly_mod_shifted(0x1234, 0, p), 0x1234u);
}

TEST(PolyModShifted, Linearity) {
  // (a ^ b) << s mod p == (a << s mod p) ^ (b << s mod p) over GF(2).
  const std::uint64_t p = RabinFingerprint::kDefaultPoly;
  const std::uint64_t a = 0x5A, b = 0xC3;
  EXPECT_EQ(poly_mod_shifted(a ^ b, 40, p),
            poly_mod_shifted(a, 40, p) ^ poly_mod_shifted(b, 40, p));
}

// The defining property of a rolling hash: after pushing a long stream, the
// fingerprint equals the direct (non-rolling) fingerprint of just the last
// `window` bytes.
TEST(RabinFingerprint, RollingEqualsDirectOfWindow) {
  const std::size_t w = 48;
  RabinFingerprint rf(w);
  const ByteVec data = random_bytes(4096, 99);
  for (Byte b : data) rf.push(b);
  const ByteSpan last_window(data.data() + data.size() - w, w);
  EXPECT_EQ(rf.value(), rf.fingerprint(last_window));
}

TEST(RabinFingerprint, RollingEqualsDirectVariousWindows) {
  for (std::size_t w : {16u, 32u, 48u, 64u}) {
    RabinFingerprint rf(w);
    const ByteVec data = random_bytes(1000, w);
    for (Byte b : data) rf.push(b);
    const ByteSpan last(data.data() + data.size() - w, w);
    EXPECT_EQ(rf.value(), rf.fingerprint(last)) << "window=" << w;
  }
}

TEST(RabinFingerprint, WindowContentDeterminesValue) {
  // Two different streams ending in the same 48 bytes agree.
  const std::size_t w = 48;
  RabinFingerprint a(w), b(w);
  const ByteVec prefix1 = random_bytes(500, 1);
  const ByteVec prefix2 = random_bytes(300, 2);
  const ByteVec tail = random_bytes(w, 3);
  for (Byte x : prefix1) a.push(x);
  for (Byte x : tail) a.push(x);
  for (Byte x : prefix2) b.push(x);
  for (Byte x : tail) b.push(x);
  EXPECT_EQ(a.value(), b.value());
}

TEST(RabinFingerprint, ResetClearsState) {
  RabinFingerprint rf(48);
  for (Byte b : random_bytes(100, 4)) rf.push(b);
  rf.reset();
  EXPECT_EQ(rf.value(), 0u);
  // Post-reset behaviour matches a fresh instance.
  RabinFingerprint fresh(48);
  const ByteVec data = random_bytes(100, 5);
  for (Byte b : data) {
    EXPECT_EQ(rf.push(b), fresh.push(b));
  }
}

TEST(RabinFingerprint, ValuesStayBelowDegreeBound) {
  RabinFingerprint rf(48);
  for (Byte b : random_bytes(10000, 6)) {
    EXPECT_LT(rf.push(b), 1ULL << 63);
  }
}

// Every table entry is the product the header comment defines it as, with
// the mask folded into the two append tables.
TEST(RabinTables, EntriesMatchTheirDefinitions) {
  const std::uint64_t p = RabinFingerprint::kDefaultPoly;
  for (const std::size_t w : {1u, 16u, 48u}) {
    const RabinTables& t = RabinTables::get(w, p);
    for (std::uint64_t b = 0; b < 256; ++b) {
      EXPECT_EQ(t.append[b], poly_mod_shifted(b, 63, p) ^ (b << 63));
      EXPECT_EQ(t.append2[b], poly_mod_shifted(b, 71, p));
      std::uint64_t removed = b;
      for (std::size_t k = 0; k < w; ++k) {
        removed = poly_mod_shifted(removed, 8, p);
      }
      EXPECT_EQ(t.remove[b], removed) << "w=" << w << " b=" << b;
      EXPECT_EQ(t.remove2[b], poly_mod_shifted(removed, 8, p));
    }
  }
}

TEST(RabinTables, SharedPerWindowAndPolynomial) {
  EXPECT_EQ(&RabinTables::get(48, RabinFingerprint::kDefaultPoly),
            &RabinTables::get(48, RabinFingerprint::kDefaultPoly));
  EXPECT_NE(&RabinTables::get(48, RabinFingerprint::kDefaultPoly),
            &RabinTables::get(64, RabinFingerprint::kDefaultPoly));
  EXPECT_THROW(RabinTables::get(0, RabinFingerprint::kDefaultPoly),
               std::invalid_argument);
  EXPECT_THROW(RabinFingerprint(0), std::invalid_argument);
  // The roll's shifts are fixed for degree 63.
  EXPECT_THROW(RabinFingerprint(48, 0x1000000000000Bull),
               std::invalid_argument);
}

// The two-byte roll equals two one-byte rolls from any reduced state.
TEST(RabinTables, TwoByteRollEqualsTwoOneByteRolls) {
  const RabinTables& t = RabinTables::get(48, RabinFingerprint::kDefaultPoly);
  Xoshiro256 rng(31);
  for (int k = 0; k < 100000; ++k) {
    const std::uint64_t f = rng() >> 1;  // reduced: degree < 63
    const auto o0 = static_cast<Byte>(rng()), b0 = static_cast<Byte>(rng());
    const auto o1 = static_cast<Byte>(rng()), b1 = static_cast<Byte>(rng());
    ASSERT_EQ(t.roll2(f, o0, b0, o1, b1), t.roll(t.roll(f, o0, b0), o1, b1));
  }
}

TEST(RabinFingerprint, SensitiveToSingleByteChange) {
  const std::size_t w = 48;
  RabinFingerprint rf(w);
  ByteVec data = random_bytes(w, 7);
  const std::uint64_t before = rf.fingerprint(data);
  data[w / 2] ^= 1;
  EXPECT_NE(rf.fingerprint(data), before);
}

}  // namespace
}  // namespace mhd
