// CRC32C kernel correctness and differential lockdown: known vectors,
// chaining, and bit-identical output from every compiled-in kernel across
// lengths, alignments and contents. The framing layer's corruption
// detection is only as good as these invariants.
#include "mhd/util/crc32c.h"

#include <gtest/gtest.h>

#include <cstring>

#include "mhd/util/random.h"

namespace mhd {
namespace {

std::uint32_t crc_of(const std::string& s) {
  return crc32c(0, as_bytes(s));
}

TEST(Crc32c, KnownVectors) {
  // RFC 3720 / common test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(crc_of(""), 0x00000000u);
  EXPECT_EQ(crc_of("a"), 0xC1D04330u);
  EXPECT_EQ(crc_of("123456789"), 0xE3069283u);
  EXPECT_EQ(crc_of("The quick brown fox jumps over the lazy dog"),
            0x22620404u);
  // 32 bytes of zeros (iSCSI test pattern).
  const ByteVec zeros(32, 0);
  EXPECT_EQ(crc32c(0, zeros), 0x8A9136AAu);
  const ByteVec ones(32, 0xFF);
  EXPECT_EQ(crc32c(0, ones), 0x62A8AB43u);
}

TEST(Crc32c, ChainingMatchesOneShot) {
  Xoshiro256 rng(7);
  ByteVec data(4096);
  for (auto& b : data) b = static_cast<Byte>(rng());
  const std::uint32_t whole = crc32c(0, data);
  for (const std::size_t split : {std::size_t{0}, std::size_t{1},
                                  std::size_t{7}, std::size_t{64},
                                  std::size_t{1000}, data.size()}) {
    const std::uint32_t a = crc32c(0, {data.data(), split});
    const std::uint32_t b =
        crc32c(a, {data.data() + split, data.size() - split});
    EXPECT_EQ(b, whole) << "split=" << split;
  }
}

TEST(Crc32c, KernelsAreBitIdentical) {
  Xoshiro256 rng(11);
  ByteVec buf(8192 + 16);
  for (auto& b : buf) b = static_cast<Byte>(rng());

  int exercised = 0;
  for (const auto& k : crc32c_kernels()) {
    if (!k.supported) continue;
    ++exercised;
    // Sweep lengths around word boundaries and all 8 alignments.
    for (std::size_t align = 0; align < 8; ++align) {
      for (const std::size_t len :
           {std::size_t{0}, std::size_t{1}, std::size_t{3}, std::size_t{7},
            std::size_t{8}, std::size_t{9}, std::size_t{15}, std::size_t{16},
            std::size_t{63}, std::size_t{64}, std::size_t{65},
            std::size_t{255}, std::size_t{1024}, std::size_t{8191}}) {
        const std::uint32_t want =
            crc32c_portable(0, buf.data() + align, len);
        EXPECT_EQ(k.fn(0, buf.data() + align, len), want)
            << k.name << " align=" << align << " len=" << len;
        // Nonzero seed chaining too.
        EXPECT_EQ(k.fn(0xDEADBEEF, buf.data() + align, len),
                  crc32c_portable(0xDEADBEEF, buf.data() + align, len))
            << k.name << " align=" << align << " len=" << len;
      }
    }
  }
  EXPECT_GE(exercised, 1);
  SCOPED_TRACE(std::string("dispatch resolves to ") + crc32c_impl_name());
}

TEST(Crc32c, RandomBuffersAcrossKernels) {
  Xoshiro256 rng(23);
  for (int i = 0; i < 200; ++i) {
    const std::size_t len = rng.below(2048);
    ByteVec buf(len);
    for (auto& b : buf) b = static_cast<Byte>(rng());
    const std::uint32_t want = crc32c_portable(0, buf.data(), buf.size());
    EXPECT_EQ(crc32c(0, buf), want) << "i=" << i;
    for (const auto& k : crc32c_kernels()) {
      if (!k.supported) continue;
      EXPECT_EQ(k.fn(0, buf.data(), buf.size()), want)
          << k.name << " i=" << i;
    }
  }
}

// Every length up to three full lanes and then some, so each lane length
// the sse42 kernel can pick, the block loop, the fold and every tail meet
// the portable kernel. Its expected values chain one byte at a time.
TEST(Crc32c, EveryLengthThroughThreeLanesMatchesPortable) {
  constexpr std::size_t kMaxLen = 3 * kCrc32cLaneCap + 64;
  int exercised = 0;
  for (const auto& k : crc32c_kernels()) {
    if (!k.supported) continue;
    ++exercised;
    for (const std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{4}}) {
      Xoshiro256 rng(seed);
      ByteVec buf(kMaxLen + 8);
      for (auto& b : buf) b = static_cast<Byte>(rng());
      // Seed 4 also starts from a running CRC instead of a fresh stream.
      const std::uint32_t start = seed == 3 ? 0 : 0x9E3779B9u;
      for (std::size_t align = 0; align < 8; ++align) {
        const Byte* p = buf.data() + align;
        std::uint32_t want = start;
        std::size_t mismatches = 0;
        for (std::size_t len = 0; len <= kMaxLen; ++len) {
          if (k.fn(start, p, len) != want && mismatches++ < 5) {
            ADD_FAILURE() << k.name << " seed=" << seed << " align=" << align
                          << " len=" << len;
          }
          want = crc32c_portable(want, p + len, 1);
        }
        EXPECT_EQ(mismatches, 0u) << k.name << " seed=" << seed
                                  << " align=" << align;
      }
    }
  }
  EXPECT_GE(exercised, 1);
}

TEST(Crc32c, EveryBitFlipChangesChecksum) {
  // The property framing relies on: CRC32C detects any single-bit error.
  ByteVec buf(64, 0x5A);
  const std::uint32_t clean = crc32c(0, buf);
  for (std::size_t byte = 0; byte < buf.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      buf[byte] ^= static_cast<Byte>(1u << bit);
      EXPECT_NE(crc32c(0, buf), clean) << "byte=" << byte << " bit=" << bit;
      buf[byte] ^= static_cast<Byte>(1u << bit);
    }
  }
}

}  // namespace
}  // namespace mhd
