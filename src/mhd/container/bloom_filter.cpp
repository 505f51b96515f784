#include "mhd/container/bloom_filter.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "mhd/hash/mix.h"
#include "mhd/util/crc32c.h"

namespace mhd {

namespace {
constexpr std::uint32_t kBloomMagic = 0x3146424Du;  // "MBF1"
constexpr std::uint32_t kBloomVersion = 1;
/// magic + version + k + inserted + word count.
constexpr std::size_t kBloomHeaderBytes = 4 + 4 + 4 + 8 + 8;
}  // namespace

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
  // was re-inserted. That determinism is load-bearing — a warm-restart
  // re-learn re-inserts known keys, and the serialized filter must stay
  // bit-identical to one that never went through the re-learn (the
  // daemon's warm-engine-vs-fresh-engine equivalence).
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

ByteVec BloomFilter::serialize() const {
  ByteVec out;
  out.reserve(kBloomHeaderBytes + bits_.size() * 8 + 4);
  append_le(out, kBloomMagic);
  append_le(out, kBloomVersion);
  append_le(out, static_cast<std::uint32_t>(k_));
  append_le(out, inserted_);
  append_le(out, static_cast<std::uint64_t>(bits_.size()));
  for (std::uint64_t word : bits_) append_le(out, word);
  append_le(out, crc32c(0, out));
  return out;
}

std::optional<BloomFilter> BloomFilter::deserialize(ByteSpan data) {
  if (data.size() < kBloomHeaderBytes + 4) return std::nullopt;
  if (load_le<std::uint32_t>(data.data()) != kBloomMagic) return std::nullopt;
  if (load_le<std::uint32_t>(data.data() + 4) != kBloomVersion) {
    return std::nullopt;
  }
  const auto k = load_le<std::uint32_t>(data.data() + 8);
  const auto inserted = load_le<std::uint64_t>(data.data() + 12);
  const auto words = load_le<std::uint64_t>(data.data() + 20);
  if (k == 0 || words == 0) return std::nullopt;
  if (data.size() != kBloomHeaderBytes + words * 8 + 4) return std::nullopt;
  const std::size_t body = data.size() - 4;
  if (load_le<std::uint32_t>(data.data() + body) !=
      crc32c(0, data.subspan(0, body))) {
    return std::nullopt;
  }
  BloomFilter filter(static_cast<std::size_t>(words) * 8,
                     static_cast<int>(k));
  for (std::uint64_t i = 0; i < words; ++i) {
    filter.bits_[i] =
        load_le<std::uint64_t>(data.data() + kBloomHeaderBytes + i * 8);
  }
  filter.inserted_ = inserted;
  return filter;
}

double BloomFilter::estimated_fp_rate() const {
  const double exponent = -static_cast<double>(k_) *
                          static_cast<double>(inserted_) /
                          static_cast<double>(bit_count_);
  return std::pow(1.0 - std::exp(exponent), k_);
}

}  // namespace mhd
