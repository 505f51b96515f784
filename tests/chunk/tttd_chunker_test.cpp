#include "mhd/chunk/tttd_chunker.h"

#include <gtest/gtest.h>

#include "mhd/chunk/chunk_stream.h"
#include "mhd/chunk/rabin_chunker.h"
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

TEST(TttdChunker, ConcatenationEqualsInput) {
  const ByteVec data = random_bytes(1 << 20, 1);
  TttdChunker chunker(ChunkerConfig::from_expected(1024));
  const auto chunks = chunk_buffer(data, chunker);
  ByteVec rebuilt;
  for (const auto& c : chunks) append(rebuilt, c);
  EXPECT_EQ(rebuilt, data);
}

TEST(TttdChunker, ConcatenationEqualsInputWithTinyIoBuffer) {
  // Exercises the carry-over (cut_back) path across refills.
  const ByteVec data = random_bytes(1 << 19, 2);
  TttdChunker chunker(ChunkerConfig::from_expected(1024));
  const auto chunks = chunk_buffer(data, chunker, 173);
  ByteVec rebuilt;
  for (const auto& c : chunks) append(rebuilt, c);
  EXPECT_EQ(rebuilt, data);
}

TEST(TttdChunker, RespectsBounds) {
  const ByteVec data = random_bytes(1 << 20, 3);
  const auto cfg = ChunkerConfig::from_expected(2048);
  TttdChunker chunker(cfg);
  const auto chunks = chunk_buffer(data, chunker);
  for (std::size_t i = 0; i + 1 < chunks.size(); ++i) {
    EXPECT_GE(chunks[i].size(), cfg.min_size);
    EXPECT_LE(chunks[i].size(), cfg.max_size);
  }
}

TEST(TttdChunker, DeterministicAcrossBufferSizes) {
  const ByteVec data = random_bytes(1 << 19, 4);
  TttdChunker a(ChunkerConfig::from_expected(1024));
  TttdChunker b(ChunkerConfig::from_expected(1024));
  EXPECT_EQ(chunk_buffer(data, a, 64 * 1024), chunk_buffer(data, b, 201));
}

TEST(TttdChunker, FreshVectorPerCallYieldsTheSameChunks) {
  // The engines hand next() a fresh vector for every chunk; the tiny IO
  // buffer makes the backup-cut carry cross refills.
  const ByteVec data = random_bytes(1 << 19, 2);
  TttdChunker a(ChunkerConfig::from_expected(1024));
  TttdChunker b(ChunkerConfig::from_expected(1024));
  EXPECT_EQ(chunk_buffer(data, a, 173),
            chunk_buffer(data, b, 173, /*fresh_vector=*/true));
}

TEST(TttdChunker, FewerMaxSizeCutsThanPlainRabin) {
  // TTTD's backup divisor should displace most forced cuts at max_size.
  const ByteVec data = random_bytes(4 << 20, 5);
  const auto cfg = ChunkerConfig::from_expected(1024);
  RabinChunker rabin(cfg);
  TttdChunker tttd(cfg);
  const auto rc = chunk_buffer(data, rabin);
  const auto tc = chunk_buffer(data, tttd);
  auto count_at_max = [&](const std::vector<ByteVec>& chunks) {
    std::size_t n = 0;
    for (const auto& c : chunks) n += (c.size() == cfg.max_size);
    return n;
  };
  EXPECT_LE(count_at_max(tc), count_at_max(rc));
}

TEST(TttdChunker, RejectsBadConfig) {
  ChunkerConfig bad;
  bad.min_size = 0;
  bad.max_size = 10;
  EXPECT_THROW(TttdChunker{bad}, std::invalid_argument);
  ChunkerConfig no_window = ChunkerConfig::from_expected(1024);
  no_window.window = 0;
  EXPECT_THROW(TttdChunker{no_window}, std::invalid_argument);
}

}  // namespace
}  // namespace mhd
