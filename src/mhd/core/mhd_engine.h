// MhdEngine — the paper's Metadata Harnessing Deduplication algorithm
// (BF-MHD when config().use_bloom, sparse-index-free variant otherwise).
//
// Pipeline per Fig. 4: Rabin-chunk the file stream at ECS; SHA-1 each
// chunk; duplicate anchors come from the Manifest cache, else the bloom
// filter gates an on-disk Hook lookup which loads the owning Manifest into
// the LRU cache. Anchored duplicates are grown by Bi-Directional Match
// Extension with Hysteresis Hash Re-chunking (match_extension.h).
// Non-duplicates wait in a 2*SD-chunk buffer: when it fills, the first SD
// chunks are flushed to the per-file DiskChunk and represented by exactly
// two Manifest entries — a Hook (first chunk, written as a hash-named hook
// file pointing at the Manifest) and one merged hash over the other SD-1
// chunks (Sampling and Hash Merging). FileManifest entries are run-length:
// one per duplicate/non-duplicate slice.
#pragma once

#include <deque>
#include <unordered_map>

#include "mhd/core/manifest_cache.h"
#include "mhd/core/match_extension.h"
#include "mhd/dedup/engine.h"

namespace mhd {

class MhdEngine final : public DedupEngine {
 public:
  MhdEngine(ObjectStore& store, const EngineConfig& config);

  std::string name() const override {
    return cfg_.use_bloom ? "BF-MHD" : "MHD";
  }

  void finish() override;

  /// Warm-session flush (see DedupEngine::flush_session). Reuse after the
  /// flush is bit-identical to a fresh engine because each piece of state
  /// either equals what a fresh construction would rebuild or is reset:
  ///  * bloom: write_hook inserted every written hook's prefix64, so
  ///    the warm filter bit-equals seed_bloom_from_hooks over the on-disk
  ///    hook set (a bloom is an order-independent OR-set);
  ///  * mem index: the cache is reset — eviction write-back empties the
  ///    mirror MemIndex, matching a fresh engine's empty cache/index;
  ///  * disk index: the cache is flushed and the index persisted while
  ///    both stay resident — PR 5's warm-restart proof shows a reopened
  ///    index + warm_load of the residency list reconstructs exactly this
  ///    state (warm_load's re-puts are no-op on disk);
  ///  * per-file state (FileCtx, MatchExtender) never outlives add_file.
  /// Returns false (discard) with a rewrite controller: its segment and
  /// utilization history is cross-session state a fresh engine would not
  /// have.
  bool flush_session() override;

  /// Manifests loaded from disk (paper TABLE V).
  std::uint64_t manifest_loads() const override {
    return cache_.manifest_loads();
  }

 protected:
  void process_file(const std::string& file_name, ByteSource& data) override;

 private:
  struct FileCtx {
    Digest dig{};
    Manifest manifest;
    std::optional<ChunkWriter> writer;
    std::uint64_t chunk_off = 0;      ///< append position in the DiskChunk
    std::uint64_t file_offset = 0;    ///< next incoming chunk's file offset
    std::deque<StreamChunk> pending;  ///< SHM buffer (capacity 2*SD)
    std::deque<StreamChunk> inbox;    ///< prefetched chunks to re-process
    std::vector<FileSegment> log;     ///< segments; sorted at file end
    /// Chunks already flushed to this file's own DiskChunk. The file's
    /// manifest only becomes visible to anchor detection at file end, so
    /// intra-file duplication (e.g. repeated zero pages of a VM image) is
    /// caught through this side map instead.
    std::unordered_map<Digest, std::pair<std::uint64_t, std::uint32_t>,
                       DigestHasher>
        current;
  };

  /// Flushes the first `count` pending chunks through SHM.
  void flush_pending(FileCtx& ctx, std::size_t count);

  ManifestCache cache_;
  MatchExtender extender_;
};

}  // namespace mhd
