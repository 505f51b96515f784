// Bloom filter (Broder & Mitzenmacher survey; as used by Data Domain and
// by the paper's BF-MHD/Bimodal/SubChunk implementations) over 64-bit keys.
//
// Keys are Digest::prefix64() values — SHA-1 prefixes are uniformly
// distributed, and the k probe positions are derived by double hashing.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mhd/util/bytes.h"

namespace mhd {

class BloomFilter {
 public:
  /// `bytes` of bit storage (the paper uses a 100 MB filter) and `k` probes.
  explicit BloomFilter(std::size_t bytes, int k = 6);

  /// Sizes a filter for `expected_items` at the given false-positive rate.
  static BloomFilter for_items(std::uint64_t expected_items,
                               double fp_rate = 0.01);

  void insert(std::uint64_t key);
  /// True if the key *may* have been inserted (false positives possible,
  /// false negatives impossible).
  bool maybe_contains(std::uint64_t key) const;

  void clear();

  std::size_t size_bytes() const { return bits_.size() * sizeof(std::uint64_t); }
  /// Inserts that set at least one new bit — effectively the distinct-key
  /// load. Re-inserting a known key (a warm-restart re-learn) does not
  /// move it, so the serialized filter is a pure function of the key set.
  std::uint64_t inserted_count() const { return inserted_; }
  int probes() const { return k_; }

  /// Predicted false-positive rate for the current load.
  double estimated_fp_rate() const;

  /// Versioned, CRC32C-framed snapshot:
  ///   [magic "MBF1"][version u32][k u32][inserted u64][words u64]
  ///   [bit words...][crc32c u32 over everything before]
  ByteVec serialize() const;

  /// Rebuilds a filter from serialize() output. nullopt on wrong magic or
  /// version, truncation, length mismatch, or CRC mismatch — a damaged
  /// snapshot must be rejected, never half-loaded (a bloom with missing
  /// bits would return false negatives, which breaks its contract).
  static std::optional<BloomFilter> deserialize(ByteSpan data);

 private:
  std::vector<std::uint64_t> bits_;
  std::uint64_t bit_count_;
  int k_;
  std::uint64_t inserted_ = 0;
};

}  // namespace mhd
