// Bi-Directional Match Extension (BME/FME) + Hysteresis Hash Re-chunking
// (HHR) — Section III of the paper.
//
// When an incoming chunk's hash anchors on a Manifest entry, the match is
// extended in both directions:
//   * backward over the engine's buffered not-yet-stored chunks, and
//   * forward over prefetched incoming chunks,
// by recomputing hashes over buffered bytes and comparing them with the
// neighboring Manifest entries. When the mismatching entry is an SHM-merged
// region (chunk_count > 1) that straddles a duplicate/non-duplicate edge,
// its bytes are reloaded from the DiskChunk (one disk access), byte-compared
// at buffered-chunk granularity, and the entry is re-chunked into at most
// three entries: a remainder, an EdgeHash (same size as the first
// mismatching new chunk — it pins the discovered edge so an identical
// future slice match-stops without another reload), and the duplicate part.
// The Manifest is marked dirty and written back on eviction/flush.
#pragma once

#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "mhd/core/manifest_cache.h"
#include "mhd/dedup/engine.h"

namespace mhd {

/// A chunk in flight: bytes + content hash + its byte offset in the file.
struct StreamChunk {
  ByteVec bytes;
  Digest hash;
  std::uint64_t file_offset = 0;
};

/// One contiguous byte range of the reconstructed file, resolved to a
/// stored DiskChunk region. The engine sorts these by file_offset to build
/// the FileManifest.
struct FileSegment {
  std::uint64_t file_offset = 0;
  Digest chunk_name{};
  std::uint64_t chunk_offset = 0;
  std::uint64_t length = 0;
};

class MatchExtender {
 public:
  /// Pulls the next incoming chunk (engine's inbox, then the chunker).
  using PullFn = std::function<std::optional<StreamChunk>()>;

  MatchExtender(ObjectStore& store, ManifestCache& cache,
                const EngineConfig& config, EngineCounters& counters)
      : store_(store), cache_(cache), cfg_(config), counters_(counters) {}

  struct Outcome {
    std::vector<FileSegment> dup_segments;  ///< any order; engine sorts
    /// Each matched chunk's hash and where its bytes are stored, so the
    /// engine can resolve a later repeat of it within the same file.
    std::vector<std::pair<Digest, ChunkRef>> matched_chunks;
    std::deque<StreamChunk> leftover;  ///< prefetched but not matched (order)
    std::uint64_t dup_chunks = 0;
    std::uint64_t dup_bytes = 0;
  };

  /// Extends the duplicate match anchored at `loc` (whose entry the chunk
  /// `anchor` equals). Backward extension consumes matched chunks from the
  /// tail of `pending`; forward extension pulls via `pull` and returns
  /// unmatched prefetches in Outcome::leftover.
  Outcome extend(const ManifestCache::Located& loc, const StreamChunk& anchor,
                 std::deque<StreamChunk>& pending, const PullFn& pull);

 private:
  /// HHR chunk-byte reload with graceful degradation: a stored region that
  /// fails CRC verification reads as "no match" (the extension simply
  /// stops, the data is re-stored as non-duplicate) and is counted under
  /// corruption_fallbacks — ingest never aborts on a rotten old chunk.
  std::optional<ByteVec> reload_chunk_range(const Manifest& m,
                                            const ManifestEntry& e);

  /// Splices entries[index] -> replacement; returns entries added - 1.
  std::size_t splice(Manifest& m, const Digest& name, std::size_t index,
                     std::vector<ManifestEntry> replacement);

  /// Backward HHR at entries[index]; consumes matched pending-tail chunks.
  /// `frontier` is the file offset the matched run must end at (buffered
  /// chunks are only byte-compared while they are file-contiguous with the
  /// already-matched region). Returns true if duplicate bytes were found.
  bool hhr_backward(Manifest& m, const Digest& name, std::size_t index,
                    std::deque<StreamChunk>& pending, std::uint64_t frontier,
                    Outcome& out);

  /// Forward HHR at entries[index]; consumes matched lookahead-front chunks.
  bool hhr_forward(Manifest& m, const Digest& name, std::size_t index,
                   std::deque<StreamChunk>& look, Outcome& out);

  ObjectStore& store_;
  ManifestCache& cache_;
  const EngineConfig& cfg_;
  EngineCounters& counters_;
};

}  // namespace mhd
