// Differential harness for the SHA-1 compression-kernel family.
//
// The SHA-NI and SSSE3-schedule kernels are correctness-critical rewrites
// of the fingerprint that names every stored object, so each compiled-in
// kernel the host supports is locked down against the portable reference
// from four directions:
//  1. NIST FIPS 180-1 vectors through the one-shot path per kernel;
//  2. every length edge around the 64-byte block and the 56-byte padding
//     threshold (0, 1, 55, 56, 57, 63, 64, 65, ... multi-block);
//  3. randomized buffers (seed-logged) one-shot vs. the portable kernel;
//  4. streaming update() with randomized split patterns vs. the one-shot
//     digest, per kernel, via the process-wide dispatch.
//
// A dispatch-resolution suite pins the --hash-impl request → kernel
// mapping, including graceful fallback and the MHD_FORCE_PORTABLE_HASH
// override the CI forced-portable ctest run relies on.
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mhd/hash/sha1.h"
#include "mhd/util/cpufeatures.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

ByteVec random_buffer(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  ByteVec data(n);
  for (auto& b : data) b = static_cast<Byte>(rng());
  return data;
}

/// Restores the process-wide dispatch to kAuto when a test is done with
/// its override, so suite order can't leak a pinned kernel.
struct DispatchGuard {
  ~DispatchGuard() { set_sha1_impl(Sha1Impl::kAuto); }
};

TEST(Sha1Kernels, RegistryHasPortableFirstAndAlwaysSupported) {
  const auto kernels = sha1_kernels();
  ASSERT_FALSE(kernels.empty());
  EXPECT_STREQ(kernels[0].name, "portable");
  EXPECT_TRUE(kernels[0].supported);
  EXPECT_EQ(kernels[0].fn, &sha1_compress_portable);
}

TEST(Sha1Kernels, NistVectorsPerKernel) {
  const struct {
    std::string_view msg;
    std::string_view hex;
  } kVectors[] = {
      {"", "da39a3ee5e6b4b0d3255bfef95601890afd80709"},
      {"abc", "a9993e364706816aba3e25717850c26c9cd0d89d"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "84983e441c3bd26ebaae4aa1f95129e5e54670f1"},
      {"The quick brown fox jumps over the lazy dog",
       "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12"},
  };
  for (const auto& k : sha1_kernels()) {
    if (!k.supported) continue;
    for (const auto& v : kVectors) {
      EXPECT_EQ(sha1_digest_with(k.fn, as_bytes(v.msg)).hex(), v.hex)
          << "kernel=" << k.name << " msg.size=" << v.msg.size();
    }
  }
}

TEST(Sha1Kernels, MillionAsPerKernel) {
  const ByteVec data(1000000, static_cast<Byte>('a'));
  for (const auto& k : sha1_kernels()) {
    if (!k.supported) continue;
    EXPECT_EQ(sha1_digest_with(k.fn, data).hex(),
              "34aa973cd4c4daa4f61eeb2bdbad27316534016f")
        << "kernel=" << k.name;
  }
}

// Every length that matters to block handling and padding: around the
// 56-byte one-vs-two-block padding threshold, the 64-byte block edge, and
// multi-block sizes (including a length that leaves the maximum tail).
TEST(Sha1Kernels, EdgeLengthsMatchPortable) {
  const std::size_t kLengths[] = {0,  1,  54,  55,  56,  57,  63,  64,
                                  65, 119, 120, 127, 128, 129, 191, 192,
                                  255, 256, 1000, 4096, 4159, 65536};
  for (const std::size_t n : kLengths) {
    const ByteVec data = random_buffer(0xD1F5 + n, n);
    const Digest ref = sha1_digest_with(&sha1_compress_portable, data);
    for (const auto& k : sha1_kernels()) {
      if (!k.supported) continue;
      EXPECT_EQ(sha1_digest_with(k.fn, data).hex(), ref.hex())
          << "kernel=" << k.name << " length=" << n;
    }
  }
}

TEST(Sha1Kernels, RandomBuffersMatchPortable) {
  Xoshiro256 rng(20260806);
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t seed = rng();
    const std::size_t n = static_cast<std::size_t>(rng() % 20000);
    const ByteVec data = random_buffer(seed, n);
    const Digest ref = sha1_digest_with(&sha1_compress_portable, data);
    for (const auto& k : sha1_kernels()) {
      if (!k.supported) continue;
      ASSERT_EQ(sha1_digest_with(k.fn, data).hex(), ref.hex())
          << "kernel=" << k.name << " seed=" << seed << " length=" << n;
    }
  }
}

// Streaming equality: pin each kernel through the dispatch, then feed the
// same buffer through update() split at randomized offsets. Exercises the
// 64-byte staging buffer at every phase (partial fills, exact fills,
// multi-block middles) and proves one-shot == streaming per kernel.
TEST(Sha1Kernels, RandomizedIncrementalSplitsPerKernel) {
  const DispatchGuard guard;
  Xoshiro256 rng(777);
  for (const auto& k : sha1_kernels()) {
    if (!k.supported) continue;
    set_sha1_impl(k.impl);
    // Under MHD_FORCE_PORTABLE_HASH the pin resolves to portable instead.
    ASSERT_STREQ(active_sha1_impl_name(), resolved_sha1_impl_name(k.impl));
    for (int trial = 0; trial < 60; ++trial) {
      const std::uint64_t seed = rng();
      const std::size_t n = 1 + static_cast<std::size_t>(rng() % 8000);
      const ByteVec data = random_buffer(seed, n);
      const Digest oneshot = Sha1::digest_of(data);
      EXPECT_EQ(oneshot.hex(),
                sha1_digest_with(&sha1_compress_portable, data).hex())
          << "kernel=" << k.name << " seed=" << seed;

      Sha1 h;
      std::size_t off = 0;
      while (off < data.size()) {
        // Bias toward tiny pieces so the staging buffer sees many phases.
        std::size_t piece = 1 + static_cast<std::size_t>(
                                    rng() % (rng() % 2 ? 7 : 200));
        piece = std::min(piece, data.size() - off);
        h.update({data.data() + off, piece});
        off += piece;
      }
      ASSERT_EQ(h.digest().hex(), oneshot.hex())
          << "kernel=" << k.name << " seed=" << seed << " length=" << n;
    }
  }
}

// ---- Dispatch resolution ----------------------------------------------

TEST(Sha1Dispatch, AutoResolvesToBestSupportedKernel) {
  if (sha1_portable_forced()) {
    EXPECT_STREQ(resolved_sha1_impl_name(Sha1Impl::kAuto), "portable");
    return;
  }
  const CpuFeatures& f = cpu_features();
  const char* expected = (f.sha_ni && f.sse41) ? "shani"
                         : f.ssse3             ? "simd-ssse3"
                                               : "portable";
  EXPECT_STREQ(resolved_sha1_impl_name(Sha1Impl::kAuto), expected);
}

TEST(Sha1Dispatch, ExplicitPortableAlwaysResolvesPortable) {
  EXPECT_STREQ(resolved_sha1_impl_name(Sha1Impl::kPortable), "portable");
}

TEST(Sha1Dispatch, UnsupportedExplicitRequestFallsBackGracefully) {
  // Whatever the host, an explicit request never fails: it resolves to
  // some supported kernel from the registry.
  for (const Sha1Impl req : {Sha1Impl::kShaNi, Sha1Impl::kSimd}) {
    const std::string resolved = resolved_sha1_impl_name(req);
    bool found = false;
    for (const auto& k : sha1_kernels()) {
      if (resolved == k.name) found = k.supported;
    }
    EXPECT_TRUE(found) << "request=" << sha1_impl_name(req)
                       << " resolved=" << resolved;
  }
}

TEST(Sha1Dispatch, FlagNamesRoundTrip) {
  for (const Sha1Impl impl : {Sha1Impl::kAuto, Sha1Impl::kShaNi,
                              Sha1Impl::kSimd, Sha1Impl::kPortable}) {
    EXPECT_EQ(sha1_impl_from_string(sha1_impl_name(impl)), impl);
  }
  EXPECT_THROW(sha1_impl_from_string("sha256"), std::invalid_argument);
  EXPECT_THROW(sha1_impl_from_string(""), std::invalid_argument);
  EXPECT_THROW(sha1_impl_from_string("SHANI"), std::invalid_argument);
}

TEST(Sha1Dispatch, ForcedPortableEnvOverridesEveryRequest) {
  const DispatchGuard guard;
  ASSERT_EQ(setenv("MHD_FORCE_PORTABLE_HASH", "1", /*overwrite=*/1), 0);
  EXPECT_TRUE(sha1_portable_forced());
  for (const Sha1Impl req : {Sha1Impl::kAuto, Sha1Impl::kShaNi,
                             Sha1Impl::kSimd, Sha1Impl::kPortable}) {
    EXPECT_STREQ(resolved_sha1_impl_name(req), "portable")
        << "request=" << sha1_impl_name(req);
  }
  set_sha1_impl(Sha1Impl::kAuto);
  EXPECT_STREQ(active_sha1_impl_name(), "portable");

  // "0" and unset both mean not forced; the env is read live.
  ASSERT_EQ(setenv("MHD_FORCE_PORTABLE_HASH", "0", 1), 0);
  EXPECT_FALSE(sha1_portable_forced());
  ASSERT_EQ(unsetenv("MHD_FORCE_PORTABLE_HASH"), 0);
  EXPECT_FALSE(sha1_portable_forced());
}

}  // namespace
}  // namespace mhd
