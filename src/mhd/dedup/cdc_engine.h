// Plain content-defined-chunking deduplication (the paper's "CDC" column):
// every chunk at ECS granularity is indexed individually — one Manifest
// entry and one on-disk Hook per stored chunk. Duplicate detection uses the
// Manifest cache for locality, a bloom filter to skip lookups for new
// hashes, and an on-disk hook query otherwise. Maximum duplicate
// elimination at maximum metadata cost (TABLE I: 512F + 312N bytes).
#pragma once

#include <unordered_map>

#include "mhd/core/manifest_cache.h"
#include "mhd/dedup/engine.h"

namespace mhd {

class CdcEngine final : public DedupEngine {
 public:
  CdcEngine(ObjectStore& store, const EngineConfig& config);

  std::string name() const override { return "CDC"; }
  void finish() override;

  std::uint64_t manifest_loads() const override {
    return cache_.manifest_loads();
  }

 protected:
  void process_file(const std::string& file_name, ByteSource& data) override;

 private:
  struct DupRef {
    Digest chunk_name;
    std::uint64_t offset = 0;
    std::uint32_t size = 0;
  };
  std::optional<DupRef> find_duplicate(const Digest& hash);

  ManifestCache cache_;
  /// Chunks of the file currently being processed (its Manifest enters the
  /// cache only at file end): enables intra-file deduplication.
  std::unordered_map<Digest, DupRef, DigestHasher> current_file_;
};

}  // namespace mhd
