// MemIndex — the always-resident FingerprintIndex (today's behavior behind
// the interface). A plain unordered_map plus byte accounting, so callers
// that used to grow an anonymous global map now get an index_ram_bytes
// high-water for the paper's Table 3 comparison. PersistentIndex is this
// map plus its persisted warm list and aux blobs.
#pragma once

#include <unordered_map>

#include "mhd/index/fingerprint_index.h"

namespace mhd {

class MemIndex : public FingerprintIndex {
 public:
  /// Estimated resident bytes per entry: the 40-byte key/value payload
  /// (two digests) plus unordered_map node, cached hash, bucket and
  /// allocator overhead on a 64-bit libstdc++. Kept at the value earlier
  /// reports used, so index_ram_bytes stays comparable across versions.
  static constexpr std::uint64_t kEntryRamBytes = 80;

  const char* impl_name() const override { return "mem"; }

  std::optional<Digest> lookup(const Digest& fp) override;
  void put(const Digest& fp, const Digest& manifest) override;
  bool erase(const Digest& fp) override;

  std::uint64_t entry_count() const override { return map_.size(); }
  std::uint64_t ram_bytes() const override {
    return map_.size() * kEntryRamBytes;
  }
  std::uint64_t ram_high_water() const override { return high_water_; }

 private:
  std::unordered_map<Digest, Digest, DigestHasher> map_;
  std::uint64_t high_water_ = 0;
};

}  // namespace mhd
