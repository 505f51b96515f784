// ManifestCache — the in-RAM Manifest working set.
//
// The paper: "The cache contains a number of Manifests, each of which is
// organized as a hash table. An incoming duplicate chunk is detected if
// its hash matches a Manifest in the cache... If the cache becomes full,
// one Manifest would be freed following the LRU policy. A Manifest that
// has been set dirty is written back to the disk before it is freed."
//
// This class implements exactly that: per-manifest hash tables plus a
// chunk-hash -> owning-manifest index (a FingerprintIndex — in-RAM by
// default, or the persistent disk index when the engine injects one) for
// O(1) duplicate detection across the whole cached set, LRU eviction with
// dirty write-back through the ObjectStore (counting kManifestOut), and
// lazy index rebuilds after HHR mutates a manifest's entries.
//
// Invariant: the fingerprint index mirrors exactly the entries of the
// cache-resident manifests — entries are added when a manifest's hash
// table is built and erased on eviction or when HHR removes the hash.
// That mirror is what makes the mem and disk index implementations
// behaviorally identical, and (with the warm list) what lets a reopened
// process resume with the same cache/index state it closed with.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mhd/container/lru_cache.h"
#include "mhd/format/manifest.h"
#include "mhd/index/fingerprint_index.h"
#include "mhd/store/object_store.h"

namespace mhd {

class ContainerBackend;

class ManifestCache {
 public:
  /// `hook_flags` selects the serialized entry format (MHD's 37-byte
  /// entries vs the baselines' 36-byte entries). `max_bytes` caps the
  /// total serialized size of cached manifests (0 = count-limited only).
  /// `index` routes duplicate detection through a caller-owned
  /// FingerprintIndex; nullptr keeps a private MemIndex (the historical
  /// behavior, bit-identical).
  ManifestCache(ObjectStore& store, std::size_t capacity, bool hook_flags,
                std::uint64_t max_bytes = 0,
                FingerprintIndex* index = nullptr);
  ~ManifestCache();

  ManifestCache(const ManifestCache&) = delete;
  ManifestCache& operator=(const ManifestCache&) = delete;

  struct Located {
    Digest manifest_name;
    Manifest* manifest;       ///< owned by the cache; do not retain
    std::size_t entry_index;  ///< first entry whose hash matched
  };

  /// Duplicate detection: is this chunk hash present in any cached
  /// manifest? Touches the owning manifest's LRU recency on hit.
  std::optional<Located> lookup_hash(const Digest& chunk_hash);

  /// Returns the cached manifest, or loads it from the store (counting a
  /// kManifestIn access). nullptr if it does not exist on disk either.
  Manifest* load(const Digest& name);

  /// Returns the manifest only if already cached (no disk access).
  Manifest* cached(const Digest& name);

  /// Inserts a freshly built manifest. `dirty` schedules a write-back on
  /// eviction/flush; callers that already persisted it pass false.
  Manifest* insert(const Digest& name, Manifest manifest, bool dirty);

  void mark_dirty(const Digest& name);

  /// Must be called after mutating a cached manifest's entries (HHR);
  /// the hash indexes are rebuilt lazily on next lookup.
  void invalidate_index(const Digest& name);

  /// Writes every dirty manifest back to the store (end of run).
  void flush();

  /// Evicts everything: dirty manifests are written back and every entry
  /// leaves the fingerprint index (the mirror invariant empties it). After
  /// reset() the cache is indistinguishable from a freshly constructed one
  /// over the same store — the session flush boundary the daemon's warm
  /// per-tenant engines use to stay bit-identical to fresh-engine runs.
  void reset();

  /// Cached manifest names, most-recently-used first (the persistent
  /// index's warm-restart list).
  std::vector<Digest> resident_names();

  /// Reloads `names` (an earlier resident_names() snapshot) from the
  /// store, preserving recency. Reads bypass access accounting and the
  /// manifest_loads counter: a warm reload restores state the
  /// uninterrupted run never lost, so it must not show up in the paper's
  /// TABLE V. Missing or corrupt manifests are skipped.
  void warm_load(const std::vector<Digest>& names);

  FingerprintIndex& index() { return *index_; }

  /// Number of manifests loaded from disk (the paper's TABLE V).
  std::uint64_t manifest_loads() const { return loads_; }
  std::uint64_t evictions() const { return lru_.eviction_count(); }
  std::size_t size() const { return lru_.size(); }

 private:
  struct Slot {
    Manifest manifest;
    std::unordered_multimap<Digest, std::size_t, DigestHasher> by_hash;
    bool index_stale = true;
    /// Byte weight snapshot taken at insertion (stable across HHR edits so
    /// the cache's weight accounting never underflows).
    std::uint64_t weight = 0;
  };

  void write_back(const Digest& name, Slot& slot);
  void ensure_index(const Digest& name, Slot& slot);
  void drop_from_index(const Digest& name, const Slot& slot);

  ObjectStore& store_;
  /// Non-null when the store packs containers: index entries then carry
  /// the chunk's container id as a location record (advisory hint).
  const ContainerBackend* containers_ = nullptr;
  bool hook_flags_;
  LruCache<Digest, Slot, DigestHasher> lru_;
  std::unique_ptr<FingerprintIndex> owned_index_;  ///< when none injected
  FingerprintIndex* index_;
  std::uint64_t loads_ = 0;
};

}  // namespace mhd
