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

#include "mhd/core/match_extension.h"
#include "mhd/dedup/engine.h"

namespace mhd {

class MhdEngine final : public AnchoredEngine {
 public:
  MhdEngine(ObjectStore& store, const EngineConfig& config);

  std::string name() const override {
    return cfg_.use_bloom ? "BF-MHD" : "MHD";
  }

  /// The daemon's per-PUT flush: makes the session durable, and reusing
  /// the engine after it is bit-identical to a fresh engine because each
  /// piece of state either equals what a fresh construction would rebuild
  /// or is reset:
  ///  * bloom: write_hook inserted every written hook's prefix64, so
  ///    the warm filter bit-equals seed_bloom_from_hooks over the on-disk
  ///    hook set (a bloom is an order-independent OR-set);
  ///  * mem index: the cache is reset — eviction write-back empties the
  ///    mirror MemIndex, matching a fresh engine's empty cache/index;
  ///  * disk index: the cache is flushed and its residency list saved
  ///    while it stays resident — the warm-restart proof shows warm_load
  ///    of that list reconstructs exactly this cache and index state;
  ///  * per-file state (FileCtx, MatchExtender) never outlives add_file.
  /// (The daemon refuses rewrite modes, whose history is not on disk.)
  void flush_session();

 protected:
  void process_file(const std::string& file_name, ByteSource& data) override;

 private:
  struct FileCtx {
    explicit FileCtx(FileOut file) : out(std::move(file)) {}

    FileOut out;
    std::uint64_t file_offset = 0;    ///< next incoming chunk's file offset
    std::deque<StreamChunk> pending;  ///< SHM buffer (capacity 2*SD)
    std::deque<StreamChunk> inbox;    ///< prefetched chunks to re-process
    std::vector<FileSegment> log;     ///< segments; sorted at file end
    /// Chunks this file has already resolved: flushed to its own
    /// DiskChunk, or matched by extension against a stored one. The
    /// file's manifest only becomes visible to anchor detection at file
    /// end, and a matched chunk inside a merged entry has no hook, so
    /// intra-file duplication (e.g. repeated zero pages of a VM image) is
    /// caught through this side map instead. The matched chunks matter
    /// when a file is stored again: its first store kept one copy of a
    /// repeated chunk, so the repeats are absent from the DiskChunk that
    /// the extension walks.
    std::unordered_map<Digest, ChunkRef, DigestHasher> current;
  };

  /// Flushes the first `count` pending chunks through SHM, each flush
  /// group to the file's DiskChunk with one write right after its Hook.
  void flush_pending(FileCtx& ctx, std::size_t count);

  MatchExtender extender_;
};

}  // namespace mhd
