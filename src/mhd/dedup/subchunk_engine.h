// Anchor-driven subchunk deduplication (Romanski et al., SYSTOR'11), as
// analysed in the paper's TABLE I/II.
//
// The stream is chunked at the big expected size ECS*SD; every
// non-duplicate big chunk is re-chunked at ECS and deduplicated small; the
// surviving small chunks of one big chunk are coalesced into a single
// container DiskChunk (hence N/SD DiskChunk inodes in TABLE I). The
// per-file manifest maps small chunks to containers, paying a shared
// 28-byte header per container group plus 36 bytes per small chunk. Each
// file gets one Hook (its first big-chunk hash) pointing at its manifest.
//
// Every incoming big chunk pays a big-chunk duplication query before
// re-chunking — the (N+D)/SD query row of TABLE II that MHD eliminates.
//
// Implementation note (documented in EXPERIMENTS.md): each big chunk also
// records its restore recipe — the container ranges covering its full
// extent — because a later duplicate big chunk must be reconstructible
// even though its bytes are scattered across containers. The paper's
// 36N + 28N/SD byte model excludes recipes, so our measured manifests are
// slightly larger; orderings are unaffected.
#pragma once

#include <unordered_map>

#include "mhd/container/lru_cache.h"
#include "mhd/dedup/engine.h"
#include "mhd/format/file_manifest.h"
#include "mhd/format/manifest.h"

namespace mhd {

class SubChunkEngine final : public DedupEngine {
 public:
  SubChunkEngine(ObjectStore& store, const EngineConfig& config);

  std::string name() const override { return "SubChunk"; }

  std::uint64_t manifest_loads() const override { return loads_; }

 protected:
  void process_file(const std::string& file_name, ByteSource& data) override;

 private:
  /// One big chunk's metadata: its container group + restore recipe.
  struct BigGroup {
    Digest big_hash;
    Digest container;                      ///< == big_hash (container name)
    std::vector<ManifestEntry> smalls;     ///< stored smalls in container
    std::vector<FileManifestEntry> recipe; ///< full extent, restore order
  };
  /// Per-file manifest: all big groups of the file.
  struct SubManifest {
    std::vector<BigGroup> groups;
    std::uint64_t weight = 0;  ///< serialized size snapshot for the cache
    ByteVec serialize() const;
    static std::optional<SubManifest> deserialize(ByteSpan data);
    std::uint64_t serialized_size() const;
  };

  std::optional<ChunkRef> find_small(const Digest& hash);
  std::optional<const BigGroup*> find_big(const Digest& hash);
  /// Loads the file manifest a hook points at into the cache.
  bool load_manifest_for(const Digest& hook_hash, AccessKind query_kind);
  void index_manifest(const Digest& name, const SubManifest& m);
  void unindex_manifest(const SubManifest& m);

  LruCache<Digest, SubManifest, DigestHasher> cache_;
  BloomFilter bloom_;
  /// Global indexes over cached manifests.
  std::unordered_map<Digest, ChunkRef, DigestHasher> small_index_;
  std::unordered_map<Digest, std::pair<Digest, std::size_t>, DigestHasher>
      big_index_;  ///< big hash -> (manifest name, group position)
  std::uint64_t loads_ = 0;
};

}  // namespace mhd
