#include "mhd/container/bloom_filter.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mhd/hash/mix.h"

namespace mhd {

BloomFilter::BloomFilter(std::size_t bytes, int k)
    : bits_((std::max<std::size_t>(bytes, 8) + 7) / 8, 0),
      bit_count_(bits_.size() * 64),
      k_(k) {
  if (k <= 0) throw std::invalid_argument("BloomFilter: k must be positive");
}

BloomFilter BloomFilter::for_items(std::uint64_t expected_items,
                                   double fp_rate) {
  expected_items = std::max<std::uint64_t>(expected_items, 1);
  const double ln2 = 0.6931471805599453;
  const double bits = -static_cast<double>(expected_items) *
                      std::log(fp_rate) / (ln2 * ln2);
  const int k = std::max(1, static_cast<int>(std::lround(
                                bits / static_cast<double>(expected_items) * ln2)));
  return BloomFilter(static_cast<std::size_t>(bits / 8.0) + 1, k);
}

void BloomFilter::insert(std::uint64_t key) {
  const std::uint64_t h1 = mix64(key, 0x9E3779B97F4A7C15ULL);
  const std::uint64_t h2 = mix64(key, 0xC2B2AE3D27D4EB4FULL) | 1;
  bool changed = false;
  for (int i = 0; i < k_; ++i) {
    const std::uint64_t bit = (h1 + static_cast<std::uint64_t>(i) * h2) % bit_count_;
    const std::uint64_t mask = 1ULL << (bit & 63);
    changed = changed || (bits_[bit >> 6] & mask) == 0;
    bits_[bit >> 6] |= mask;
  }
  // Count only inserts that set a new bit: the load estimate then depends
  // solely on the SET of keys ever inserted, not on how many times each
  // was re-inserted, so a warm-restart re-learn (which re-inserts known
  // keys) leaves the filter identical to one that never went through it.
  if (changed) ++inserted_;
}

bool BloomFilter::maybe_contains(std::uint64_t key) const {
  const std::uint64_t h1 = mix64(key, 0x9E3779B97F4A7C15ULL);
  const std::uint64_t h2 = mix64(key, 0xC2B2AE3D27D4EB4FULL) | 1;
  for (int i = 0; i < k_; ++i) {
    const std::uint64_t bit = (h1 + static_cast<std::uint64_t>(i) * h2) % bit_count_;
    if ((bits_[bit >> 6] & (1ULL << (bit & 63))) == 0) return false;
  }
  return true;
}

void BloomFilter::clear() {
  std::fill(bits_.begin(), bits_.end(), 0);
  inserted_ = 0;
}

double BloomFilter::estimated_fp_rate() const {
  const double exponent = -static_cast<double>(k_) *
                          static_cast<double>(inserted_) /
                          static_cast<double>(bit_count_);
  return std::pow(1.0 - std::exp(exponent), k_);
}

}  // namespace mhd
