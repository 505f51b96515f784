#include "mhd/container/bloom_filter.h"

#include <gtest/gtest.h>

#include "mhd/util/random.h"

namespace mhd {
namespace {

TEST(BloomFilter, NoFalseNegatives) {
  BloomFilter bf(64 * 1024);
  Xoshiro256 rng(1);
  std::vector<std::uint64_t> keys;
  for (int i = 0; i < 10000; ++i) keys.push_back(rng());
  for (auto k : keys) bf.insert(k);
  for (auto k : keys) EXPECT_TRUE(bf.maybe_contains(k));
}

TEST(BloomFilter, FalsePositiveRateReasonable) {
  BloomFilter bf = BloomFilter::for_items(10000, 0.01);
  Xoshiro256 rng(2);
  for (int i = 0; i < 10000; ++i) bf.insert(rng());
  // Fresh keys from a different seed; count false positives.
  Xoshiro256 probe(3);
  int fp = 0;
  const int probes = 20000;
  for (int i = 0; i < probes; ++i) fp += bf.maybe_contains(probe());
  EXPECT_LT(static_cast<double>(fp) / probes, 0.05);
}

TEST(BloomFilter, EmptyContainsNothing) {
  BloomFilter bf(1024);
  Xoshiro256 rng(4);
  int hits = 0;
  for (int i = 0; i < 1000; ++i) hits += bf.maybe_contains(rng());
  EXPECT_EQ(hits, 0);
}

// A filter may take over the bit array a destroyed one released: it must
// start empty all the same.
TEST(BloomFilter, AReusedArrayStartsEmpty) {
  std::vector<std::uint64_t> keys;
  {
    BloomFilter full(1024);
    for (std::uint64_t k = 0; k < 2000; ++k) {
      full.insert(k);
      keys.push_back(k);
    }
  }
  BloomFilter fresh(1024);
  EXPECT_EQ(fresh.inserted_count(), 0u);
  for (const auto k : keys) EXPECT_FALSE(fresh.maybe_contains(k)) << k;
}

TEST(BloomFilter, ClearResets) {
  BloomFilter bf(1024);
  bf.insert(42);
  ASSERT_TRUE(bf.maybe_contains(42));
  bf.clear();
  EXPECT_FALSE(bf.maybe_contains(42));
  EXPECT_EQ(bf.inserted_count(), 0u);
}

TEST(BloomFilter, TracksInsertedCount) {
  BloomFilter bf(1024);
  for (int i = 0; i < 5; ++i) bf.insert(i);
  EXPECT_EQ(bf.inserted_count(), 5u);
}

TEST(BloomFilter, EstimatedFpRateGrowsWithLoad) {
  BloomFilter bf(128);
  const double empty_rate = bf.estimated_fp_rate();
  for (int i = 0; i < 500; ++i) bf.insert(i);
  EXPECT_GT(bf.estimated_fp_rate(), empty_rate);
  EXPECT_LE(bf.estimated_fp_rate(), 1.0);
}

TEST(BloomFilter, ForItemsSizing) {
  const auto bf = BloomFilter::for_items(1000000, 0.01);
  // ~9.6 bits/key at 1% -> ~1.2 MB.
  EXPECT_GT(bf.size_bytes(), 1000000u);
  EXPECT_LT(bf.size_bytes(), 2500000u);
}

TEST(BloomFilter, RejectsNonPositiveK) {
  EXPECT_THROW(BloomFilter(1024, 0), std::invalid_argument);
}

}  // namespace
}  // namespace mhd
