// Sparse Indexing (Lillibridge et al., FAST'09), as configured in the
// paper's Section V: segment size ECS*SD*5, at most 10 champions per
// segment, each sampled hook maps to at most 5 manifests, hooks sampled at
// rate 1/SD by hash value.
//
// The incoming stream is cut into ECS chunks and grouped into segments.
// For each segment, its sampled hooks vote for previously seen segment
// manifests through the in-RAM sparse index; the top-voted "champions" are
// loaded and the segment's chunks are deduplicated against them. The
// segment manifest records *every* chunk of the segment (duplicates too,
// so popular hashes are stored many times — the metadata growth the paper
// criticises), and the sparse index entry of each hook is updated.
// index_ram_bytes() reports the sparse index footprint (paper TABLE III).
#pragma once

#include <unordered_map>

#include "mhd/container/lru_cache.h"
#include "mhd/dedup/engine.h"
#include "mhd/format/file_manifest.h"

namespace mhd {

class SparseIndexEngine final : public DedupEngine {
 public:
  SparseIndexEngine(ObjectStore& store, const EngineConfig& config);

  std::string name() const override { return "SparseIndexing"; }

  std::uint64_t manifest_loads() const override { return loads_; }
  std::uint64_t index_ram_bytes() const override;

 protected:
  void process_file(const std::string& file_name, ByteSource& data) override;

 private:
  struct SegChunk {
    ByteVec bytes;
    Digest hash;
  };
  /// A segment manifest: every chunk of the segment with its location.
  struct SegManifest {
    std::vector<Digest> containers;  ///< shared container table
    struct Entry {
      Digest hash;
      std::uint32_t container_index = 0;
      std::uint64_t offset = 0;
      std::uint32_t size = 0;
    };
    std::vector<Entry> entries;
    std::uint64_t weight = 0;  ///< serialized size snapshot for the cache
    ByteVec serialize() const;
    static std::optional<SegManifest> deserialize(ByteSpan data);
    std::uint64_t serialized_size() const {
      return 8 + containers.size() * 20 + entries.size() * 36;
    }
  };

  bool is_hook(const Digest& hash) const {
    return hash.prefix64() % cfg_.sd == 0;
  }
  void dedup_segment(std::vector<SegChunk>& segment, const Digest& file_dig,
                     std::uint64_t segment_seq, FileManifest& fm,
                     bool& stored_anything);

  /// hook prefix -> most recent manifests containing it (<= max 5).
  std::unordered_map<std::uint64_t, std::vector<Digest>> sparse_index_;
  LruCache<Digest, SegManifest, DigestHasher> cache_;
  std::uint64_t loads_ = 0;
};

}  // namespace mhd
