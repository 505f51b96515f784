// Bloom filter (Broder & Mitzenmacher survey; as used by Data Domain and
// by the paper's BF-MHD/Bimodal/SubChunk implementations) over 64-bit keys.
//
// Keys are Digest::prefix64() values — SHA-1 prefixes are uniformly
// distributed, and the k probe positions are derived by double hashing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

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

  std::size_t size_bytes() const { return words_ * sizeof(std::uint64_t); }
  /// Inserts that set at least one new bit — effectively the distinct-key
  /// load. Re-inserting a known key (a warm-restart re-learn) does not
  /// move it, so the count is a pure function of the key set.
  std::uint64_t inserted_count() const { return inserted_; }
  int probes() const { return k_; }

  /// Predicted false-positive rate for the current load.
  double estimated_fp_rate() const;

 private:
  /// Keeps the released array as the next filter's, unmapping the one
  /// kept before.
  struct Release {
    std::size_t bytes;
    void operator()(std::uint64_t* words) const;
  };
  std::size_t words_;
  /// An anonymous mapping, not a heap block. The daemon builds a filter
  /// (4 MiB by default) per tenant session, in whichever thread takes the
  /// tenant's first PUT. From the heap, each freed filter stayed resident
  /// as the free top of that thread's malloc arena, which malloc_trim does
  /// not release, so every session rebuilt on another thread left another
  /// one behind. Now at most one released array stays mapped, for reuse.
  std::unique_ptr<std::uint64_t[], Release> bits_;
  std::uint64_t bit_count_;
  int k_;
  std::uint64_t inserted_ = 0;
};

}  // namespace mhd
