// Extreme Binning (Bhagwat, Eshghi, Long & Lillibridge, MASCOTS'09) — the
// file-similarity baseline from the paper's related work: "uses one chunk
// from each file to represent the corresponding file. If the representative
// chunk is found to be a duplicate, data locality information of the
// corresponding file is loaded into the RAM. As only one disk access is
// needed per file, the throughput ... is comparatively high."
//
// Per file: chunk at ECS, take the minimum chunk hash as the
// representative; the in-RAM primary index maps representative -> bin.
// A bin (stored as a Manifest) holds the chunk index of every file that
// shared the representative; it is loaded with one disk access, the file
// is deduplicated against it, and the bin absorbs the file's new chunks.
#pragma once

#include <unordered_map>

#include "mhd/dedup/engine.h"
#include "mhd/format/file_manifest.h"
#include "mhd/format/manifest.h"

namespace mhd {

class ExtremeBinningEngine final : public DedupEngine {
 public:
  ExtremeBinningEngine(ObjectStore& store, const EngineConfig& config);

  std::string name() const override { return "ExtremeBinning"; }

  std::uint64_t manifest_loads() const override { return bin_loads_; }
  std::uint64_t index_ram_bytes() const override {
    return primary_index_.size() * (Digest::kSize * 2 + 16);
  }

 private:
  /// A bin: chunk hash -> location, serialized as a Manifest-like blob.
  using Bin = std::unordered_map<Digest, ChunkRef, DigestHasher>;

  void process_file(const std::string& file_name, ByteSource& data) override;

  ByteVec serialize_bin(const Bin& bin) const;
  std::optional<Bin> deserialize_bin(ByteSpan data) const;

  /// representative chunk hash -> bin object name.
  std::unordered_map<Digest, Digest, DigestHasher> primary_index_;
  std::uint64_t bin_loads_ = 0;
};

}  // namespace mhd
