// Recycled chunk-buffer slabs for the ingest hot path.
//
// Every chunk that flows through ChunkStream lives in a ByteVec. Without
// pooling, steady-state ingest performs one allocation (and eventually one
// free) per chunk — pure overhead that also serializes concurrent daemon
// sessions on the allocator lock. The pool keeps returned slabs (with
// their capacity intact) on a free list, so after warm-up every acquire is
// a pop and chunk append runs entirely inside recycled capacity: zero heap
// allocations per chunk.
//
// Ownership protocol (see DESIGN.md "Chunk buffer pool"):
//  * the producer that fills a buffer acquires it (ChunkStream::next);
//  * whoever consumes the bytes releases the slab — moving a ByteVec moves
//    the obligation with it. Releasing a buffer the pool never saw is fine
//    (the pool adopts it); dropping a pooled buffer on the floor is also
//    fine (plain vector destruction), just a lost recycling opportunity.
//
// The free list is bounded two ways: slabs above kMaxSlabBytes are dropped
// on release (pathological chunk sizes must not pin memory), and a
// periodic high-water trim shrinks the list toward the observed peak of
// concurrently outstanding buffers, so a burst (several sessions ingesting
// at once) doesn't leave its footprint behind forever.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "mhd/util/bytes.h"

namespace mhd {

/// Thread-safe free list of ByteVec slabs. All methods may be called
/// concurrently, e.g. from daemon sessions ingesting side by side.
class BufferPool {
 public:
  /// Slabs larger than this are freed on release instead of pooled.
  static constexpr std::size_t kMaxSlabBytes = 8u << 20;
  /// Releases between high-water trims.
  static constexpr std::uint64_t kTrimInterval = 4096;
  /// Free slabs kept beyond the outstanding high-water mark when trimming.
  static constexpr std::size_t kTrimSlack = 4;

  /// Counters for tests and bench metadata. Monotonic except free_count /
  /// outstanding, which are instantaneous.
  struct Stats {
    std::uint64_t acquires = 0;
    std::uint64_t reuses = 0;   ///< acquires served from the free list
    std::uint64_t releases = 0;
    std::uint64_t dropped_oversize = 0;
    std::uint64_t dropped_trim = 0;
    std::size_t free_count = 0;
    std::size_t outstanding = 0;  ///< acquired minus released, saturating
    std::size_t outstanding_high_water = 0;
  };

  /// Returns an empty buffer, recycled (capacity intact) when available.
  ByteVec acquire();

  /// Takes `buf`'s storage back. The buffer is cleared but keeps its
  /// capacity; oversize slabs are freed instead.
  void release(ByteVec&& buf);

  /// Drops every pooled slab and resets the high-water mark (not the
  /// monotonic counters).
  void trim();

  Stats stats() const;

 private:
  void trim_locked();

  mutable std::mutex mu_;
  std::vector<ByteVec> free_;
  Stats stats_;
};

/// The process-wide pool the ingest path uses. Separate pools are only
/// worth it when tests need isolated counters.
BufferPool& chunk_buffer_pool();

}  // namespace mhd
