// ContainerBackend — fixed-size container packing for chunk data.
//
// A StorageBackend decorator that keeps the *logical* DiskChunk namespace
// every engine and manifest speaks (name-addressable chunk objects with
// byte offsets) while physically packing the bytes into fixed-size
// containers in write order, the layout every fragmentation-aware dedup
// store uses (destor's container store, CBR/HAR papers):
//
//   * append(kDiskChunk, name, data) packs the bytes into the currently
//     open container under Ns::kContainer (a record stream, CRC-framed by
//     the FramedBackend below) and records an extent
//     {container, container_offset, length}. A container that reaches the
//     configured size is sealed and a new one opened; one append may
//     split across the boundary. A batch (append_all) packs the same
//     parts with one inner call per container it touches, and takes into
//     the open image, the extents and the fill only the parts that call
//     accepted, so a failed batch leaves them matching the bytes below.
//   * seal(kDiskChunk, name) commits the chunk's extent map as a sealed
//     object under Ns::kChunkMap — the durability point of the chunk.
//     Every extent a committed map names was appended by a strictly
//     earlier mutation, so a crash can only lose bytes no committed map
//     references (the invariant fsck leans on).
//   * get/get_range(kDiskChunk, ...) resolve through the extent map and
//     read whole containers through a bounded LRU container cache — the
//     forward-assembly-area of the restore path. Reads of the still-open
//     container are served from its in-RAM image (its tail is not yet a
//     clean stream below).
//
// Layering (outermost first):
//
//   ObjectStore → ContainerBackend → FramedBackend → [Fault] → File/Memory
//
// All namespaces other than kDiskChunk pass through untouched; the inner
// backend never sees a kDiskChunk object. Reopening a repository scans
// Ns::kContainer for the highest container id and always starts a fresh
// container (sealed streams are immutable).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "mhd/container/lru_cache.h"
#include "mhd/store/backend.h"

namespace mhd {

struct ContainerConfig {
  /// Target physical container size (chunk payload bytes per container).
  std::uint64_t container_bytes = 4ull << 20;
  /// RAM budget of the whole-container restore cache (--restore-cache-mb).
  std::uint64_t cache_bytes = 32ull << 20;
};

/// Monotonic counters; diff two snapshots around a restore to get that
/// restore's container traffic (the CFL denominator).
struct ContainerStats {
  std::uint64_t containers_sealed = 0;
  std::uint64_t packed_bytes = 0;       ///< chunk bytes packed so far
  std::uint64_t container_reads = 0;    ///< whole-container loads (misses)
  std::uint64_t container_read_bytes = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t open_hits = 0;  ///< reads served from the open container
};

class ContainerBackend final : public StorageBackend {
 public:
  /// One contiguous placement of part of a chunk's logical byte range.
  struct Extent {
    std::uint64_t container = 0;  ///< numeric container id
    std::uint64_t offset = 0;     ///< byte offset inside the container
    std::uint64_t length = 0;
  };

  ContainerBackend(StorageBackend& inner, ContainerConfig config);
  ~ContainerBackend() override;

  void put(Ns ns, const std::string& name, ByteSpan data) override;
  void append(Ns ns, const std::string& name, ByteSpan data) override;
  /// Packs the pieces in order, with one inner call per container the
  /// batch touches.
  void append_all(Ns ns, const std::string& name,
                  std::span<const ByteSpan> pieces,
                  std::size_t* landed = nullptr) override;
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override;
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override;
  bool exists(Ns ns, const std::string& name) const override;
  bool remove(Ns ns, const std::string& name) override;
  std::uint64_t object_count(Ns ns) const override;
  std::uint64_t content_bytes(Ns ns) const override;
  std::vector<std::string> list(Ns ns) const override;
  std::vector<LayoutDamage> layout_damage() const override {
    return inner_.layout_damage();
  }
  void seal(Ns ns, const std::string& name) override;

  const ContainerConfig& config() const { return cfg_; }

  /// Seals the open container (if it holds any bytes) so every packed byte
  /// is a clean stream below. Called from the destructor; callers that
  /// measure or fsck the inner backend mid-life call it explicitly.
  void flush();

  /// Container id holding the chunk's bytes at `logical_offset`; nullopt
  /// for an unknown chunk. This is the placement query rewrite algorithms
  /// (CBR/HAR) make at dedup time.
  std::optional<std::uint64_t> locate(const std::string& chunk_name,
                                      std::uint64_t logical_offset) const;

  /// Id of the currently open (still-filling) container.
  std::uint64_t open_container() const { return open_id_; }

  /// Data bytes packed into container `id` (0 if unknown) — the HAR
  /// utilization denominator.
  std::uint64_t container_data_bytes(std::uint64_t id) const;

  /// GC sweep: removes sealed containers referenced by no surviving chunk
  /// extent map. Returns {containers removed, payload bytes reclaimed}.
  /// Run after the chunk-map sweep of collect_garbage().
  std::pair<std::uint64_t, std::uint64_t> sweep_containers();

  /// Empties the whole-container LRU cache (the counters are untouched).
  /// Restore benchmarks call this to measure from a cold cache instead of
  /// whatever ingest/verification happened to leave resident.
  void drop_cache();

  ContainerStats stats() const;

  static std::string container_name(std::uint64_t id);
  static std::optional<std::uint64_t> parse_container_name(
      const std::string& name);

  /// (De)serialization of an extent map (the Ns::kChunkMap payload).
  static ByteVec serialize_extents(const std::vector<Extent>& extents);
  static std::optional<std::vector<Extent>> parse_extents(ByteSpan bytes);

 private:
  using ExtentMap = std::vector<Extent>;

  /// Extent map for a chunk: committed (RAM cache over kChunkMap) or still
  /// pending. nullptr when the chunk is unknown. Caller holds mu_.
  const ExtentMap* extents_for(const std::string& name) const;

  /// Bytes [offset, offset+length) of container `id`, via the open image,
  /// the cache, or a whole-container load. Caller holds mu_.
  std::optional<ByteVec> read_container_range(std::uint64_t id,
                                              std::uint64_t offset,
                                              std::uint64_t length) const;
  /// Caches a sealed container's bytes, unless it alone exceeds the
  /// budget (it would evict everything and still not fit).
  void cache_insert(std::uint64_t id, ByteVec bytes) const;
  void roll_container();
  /// Takes `parts`, which the inner backend accepted into the open
  /// container, into its image, the chunk's `extents` and the fill.
  /// Caller holds mu_.
  void place(ExtentMap& extents, std::span<const ByteSpan> parts);

  StorageBackend& inner_;
  ContainerConfig cfg_;

  mutable std::mutex mu_;

  std::uint64_t open_id_ = 0;
  std::uint64_t open_fill_ = 0;  ///< payload bytes in the open container
  ByteVec open_image_;           ///< in-RAM copy of the open container
  mutable std::unordered_map<std::uint64_t, std::uint64_t> container_fill_;

  std::unordered_map<std::string, ExtentMap> pending_;    ///< unsealed chunks
  mutable std::unordered_map<std::string, ExtentMap> committed_;  ///< cache
  std::uint64_t chunk_logical_bytes_ = 0;  ///< content_bytes(kDiskChunk)

  mutable ContainerStats stats_;
  /// Whole-container LRU cache, byte-budgeted; its evictions count in
  /// stats_.cache_evictions.
  mutable LruCache<std::uint64_t, ByteVec> cache_;
};

}  // namespace mhd
