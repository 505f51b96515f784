#include "mhd/container/bloom_filter.h"

#include <sys/mman.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <new>
#include <stdexcept>
#include <utility>

#include "mhd/hash/mix.h"

namespace mhd {

namespace {

/// The last released bit array, kept mapped for the next filter of its
/// size: an engine rebuilt per day or per daemon session then zeroes
/// resident pages instead of faulting in fresh ones (for 4 MiB, 0.2 ms
/// against 1.3 ms on the 4-CPU host).
std::mutex spare_mu;
std::uint64_t* spare = nullptr;
std::size_t spare_bytes = 0;

/// `bytes` of zeroed words: the spare array when it has that size, else
/// a fresh anonymous mapping.
std::uint64_t* zeroed_words(std::size_t bytes) {
  std::uint64_t* words = nullptr;
  {
    const std::lock_guard<std::mutex> lock(spare_mu);
    if (spare_bytes == bytes) words = std::exchange(spare, nullptr);
  }
  if (words != nullptr) {
    std::memset(words, 0, bytes);
    return words;
  }
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return static_cast<std::uint64_t*>(p);
}

}  // namespace

void BloomFilter::Release::operator()(std::uint64_t* words) const {
  std::uint64_t* old = nullptr;
  std::size_t old_bytes = 0;
  {
    const std::lock_guard<std::mutex> lock(spare_mu);
    old = std::exchange(spare, words);
    old_bytes = std::exchange(spare_bytes, bytes);
  }
  if (old != nullptr) ::munmap(old, old_bytes);
}

BloomFilter::BloomFilter(std::size_t bytes, int k)
    : words_((std::max<std::size_t>(bytes, 8) + 7) / 8),
      bit_count_(words_ * 64),
      k_(k) {
  if (k <= 0) throw std::invalid_argument("BloomFilter: k must be positive");
  const std::size_t mapped = words_ * sizeof(std::uint64_t);
  bits_ = {zeroed_words(mapped), Release{mapped}};
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
  std::fill(bits_.get(), bits_.get() + words_, 0);
  inserted_ = 0;
}

double BloomFilter::estimated_fp_rate() const {
  const double exponent = -static_cast<double>(k_) *
                          static_cast<double>(inserted_) /
                          static_cast<double>(bit_count_);
  return std::pow(1.0 - std::exp(exponent), k_);
}

}  // namespace mhd
