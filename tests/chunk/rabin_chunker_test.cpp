#include "mhd/chunk/rabin_chunker.h"

#include <gtest/gtest.h>

#include <map>

#include "mhd/chunk/chunk_stream.h"
#include "mhd/hash/sha1.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

ByteVec random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  ByteVec out(n);
  for (auto& b : out) b = static_cast<Byte>(rng());
  return out;
}

/// With `fresh_vector`, every next() call gets a new, capacity-free
/// vector instead of the one reused across calls.
std::vector<ByteVec> chunk_buffer(ByteSpan data, Chunker& chunker,
                                  std::size_t io_buf = 64 * 1024,
                                  bool fresh_vector = false) {
  MemorySource src(data);
  ChunkStream stream(src, chunker, io_buf);
  std::vector<ByteVec> chunks;
  ByteVec c;
  while (stream.next(c)) {
    chunks.push_back(c);
    if (fresh_vector) c = ByteVec{};
  }
  return chunks;
}

TEST(ChunkerConfig, FromExpectedFollowsLbfsRatios) {
  const auto c = ChunkerConfig::from_expected(8192);
  EXPECT_EQ(c.expected_size, 8192u);
  EXPECT_EQ(c.min_size, 2048u);
  EXPECT_EQ(c.max_size, 65536u);
  // Tiny expected sizes keep a sane floor.
  EXPECT_EQ(ChunkerConfig::from_expected(128).min_size, 64u);
}

TEST(RabinChunker, ConcatenationEqualsInput) {
  const ByteVec data = random_bytes(1 << 20, 1);
  RabinChunker chunker(ChunkerConfig::from_expected(1024));
  const auto chunks = chunk_buffer(data, chunker);
  ByteVec rebuilt;
  for (const auto& c : chunks) append(rebuilt, c);
  EXPECT_EQ(rebuilt, data);
}

TEST(RabinChunker, RespectsMinAndMaxBounds) {
  const ByteVec data = random_bytes(1 << 20, 2);
  const auto cfg = ChunkerConfig::from_expected(2048);
  RabinChunker chunker(cfg);
  const auto chunks = chunk_buffer(data, chunker);
  ASSERT_GT(chunks.size(), 10u);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].size(), cfg.min_size);
    EXPECT_LE(chunks[i].size(), cfg.max_size);
  }
  // Final chunk may be short but never oversized.
  EXPECT_LE(chunks.back().size(), cfg.max_size);
}

TEST(RabinChunker, AverageNearExpected) {
  const ByteVec data = random_bytes(4 << 20, 3);
  const auto cfg = ChunkerConfig::from_expected(2048);
  RabinChunker chunker(cfg);
  const auto chunks = chunk_buffer(data, chunker);
  const double avg = static_cast<double>(data.size()) / chunks.size();
  EXPECT_GT(avg, cfg.expected_size * 0.5);
  EXPECT_LT(avg, cfg.expected_size * 2.0);
}

TEST(RabinChunker, DeterministicAcrossScansAndBufferSizes) {
  const ByteVec data = random_bytes(1 << 19, 4);
  RabinChunker a(ChunkerConfig::from_expected(1024));
  RabinChunker b(ChunkerConfig::from_expected(1024));
  const auto chunks_a = chunk_buffer(data, a, 64 * 1024);
  const auto chunks_b = chunk_buffer(data, b, 137);  // awkward buffer size
  EXPECT_EQ(chunks_a, chunks_b);
}

TEST(RabinChunker, FreshVectorPerCallYieldsTheSameChunks) {
  // The engines hand next() a fresh vector for every chunk.
  const ByteVec data = random_bytes(1 << 19, 4);
  RabinChunker a(ChunkerConfig::from_expected(1024));
  RabinChunker b(ChunkerConfig::from_expected(1024));
  EXPECT_EQ(chunk_buffer(data, a, 137),
            chunk_buffer(data, b, 137, /*fresh_vector=*/true));
}

// The boundary-shift property that motivated CDC: prepending bytes must not
// re-cut the whole stream — almost all chunk contents reappear.
TEST(RabinChunker, BoundaryShiftResilience) {
  const ByteVec data = random_bytes(1 << 20, 5);
  ByteVec shifted = random_bytes(100, 6);  // 100-byte insertion at front
  append(shifted, data);

  RabinChunker c1(ChunkerConfig::from_expected(1024));
  RabinChunker c2(ChunkerConfig::from_expected(1024));
  const auto chunks1 = chunk_buffer(data, c1);
  const auto chunks2 = chunk_buffer(shifted, c2);

  std::map<Digest, int> hashes1;
  for (const auto& c : chunks1) hashes1[Sha1::hash(c)]++;
  std::size_t shared = 0;
  for (const auto& c : chunks2) {
    auto it = hashes1.find(Sha1::hash(c));
    if (it != hashes1.end() && it->second > 0) {
      --it->second;
      ++shared;
    }
  }
  // All but the first few chunks realign.
  EXPECT_GT(shared, chunks1.size() * 9 / 10);
}

TEST(RabinChunker, ZeroRunsDoNotDegenerate) {
  // All-zero content must not cut at every position (magic != 0).
  const ByteVec zeros(1 << 18, 0);
  const auto cfg = ChunkerConfig::from_expected(1024);
  RabinChunker chunker(cfg);
  const auto chunks = chunk_buffer(zeros, chunker);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].size(), cfg.min_size);
  }
}

TEST(RabinChunker, RejectsBadConfig) {
  ChunkerConfig bad;
  bad.min_size = 0;
  bad.max_size = 100;
  EXPECT_THROW(RabinChunker{bad}, std::invalid_argument);
  ChunkerConfig inverted = ChunkerConfig::from_expected(1024);
  inverted.max_size = inverted.min_size - 1;
  EXPECT_THROW(RabinChunker{inverted}, std::invalid_argument);
  // A zero window has no outgoing byte to roll out.
  ChunkerConfig no_window = ChunkerConfig::from_expected(1024);
  no_window.window = 0;
  EXPECT_THROW(RabinChunker{no_window}, std::invalid_argument);
}

// Paper parameterization sweep: every ECS the evaluation uses must satisfy
// the bound/determinism invariants.
class RabinChunkerEcsTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RabinChunkerEcsTest, BoundsAndDeterminismAtEcs) {
  const std::uint32_t ecs = GetParam();
  const ByteVec data = random_bytes(2 << 20, ecs);
  const auto cfg = ChunkerConfig::from_expected(ecs);
  RabinChunker a(cfg), b(cfg);
  const auto chunks = chunk_buffer(data, a);
  EXPECT_EQ(chunks, chunk_buffer(data, b, 4096));
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].size(), cfg.min_size);
    EXPECT_LE(chunks[i].size(), cfg.max_size);
  }
  const double avg = static_cast<double>(data.size()) / chunks.size();
  EXPECT_GT(avg, ecs * 0.4);
  EXPECT_LT(avg, ecs * 2.5);
}

INSTANTIATE_TEST_SUITE_P(PaperEcsSweep, RabinChunkerEcsTest,
                         ::testing::Values(512, 768, 1024, 2048, 4096, 8192));

}  // namespace
}  // namespace mhd
