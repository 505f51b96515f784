// Randomized round-trip fuzz for every wire format: arbitrary well-formed
// structures must serialize/deserialize losslessly, and truncations of
// valid wire bytes must never parse into something larger than the
// original (no buffer over-reads, no fabricated entries).
#include <gtest/gtest.h>

#include "mhd/format/file_manifest.h"
#include "mhd/format/manifest.h"
#include "mhd/format/recipe_codec.h"
#include "mhd/hash/sha1.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

Digest random_digest(Xoshiro256& rng) {
  ByteVec b(20);
  for (auto& x : b) x = static_cast<Byte>(rng());
  Digest d;
  std::copy(b.begin(), b.end(), d.bytes.begin());
  return d;
}

class SerializationFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SerializationFuzzTest, ManifestRoundTrip) {
  Xoshiro256 rng(GetParam());
  Manifest m(random_digest(rng));
  std::uint64_t off = 0;
  const int n = static_cast<int>(rng.below(50));
  for (int i = 0; i < n; ++i) {
    const std::uint32_t size = 1 + static_cast<std::uint32_t>(rng.below(100000));
    m.add({random_digest(rng), off, size,
           1 + static_cast<std::uint32_t>(rng.below(100)), rng.chance(0.2)});
    off += size;
  }
  for (const bool hook_flags : {true, false}) {
    const ByteVec wire = m.serialize(hook_flags);
    const auto back = Manifest::deserialize(wire);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->chunk_name(), m.chunk_name());
    if (hook_flags) {
      EXPECT_EQ(back->entries(), m.entries());
    } else {
      ASSERT_EQ(back->entries().size(), m.entries().size());
      for (std::size_t i = 0; i < m.entries().size(); ++i) {
        EXPECT_EQ(back->entries()[i].hash, m.entries()[i].hash);
        EXPECT_EQ(back->entries()[i].size, m.entries()[i].size);
      }
    }
    // Any truncation either fails or yields no more entries than written.
    for (int t = 0; t < 8; ++t) {
      const std::size_t cut = static_cast<std::size_t>(rng.below(wire.size() + 1));
      const auto trunc = Manifest::deserialize({wire.data(), cut});
      if (trunc) {
        EXPECT_LE(trunc->entries().size(), m.entries().size());
      }
    }
  }
}

TEST_P(SerializationFuzzTest, FileManifestAndRecipeRoundTrip) {
  Xoshiro256 rng(GetParam() ^ 0xF11E);
  FileManifest fm("fuzz-" + std::to_string(GetParam()));
  const int n = static_cast<int>(rng.below(80));
  for (int i = 0; i < n; ++i) {
    fm.add_range(random_digest(rng), rng.below(1ULL << 40),
                 1 + rng.below(1 << 20), rng.chance(0.5));
  }
  const auto back = FileManifest::deserialize(fm.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->entries(), fm.entries());
  EXPECT_EQ(back->file_name(), fm.file_name());

  const auto unpacked = decompress_recipe(compress_recipe(fm));
  ASSERT_TRUE(unpacked.has_value());
  EXPECT_EQ(unpacked->entries(), fm.entries());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializationFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace mhd
