// SampledIndex — the sampled similarity FingerprintIndex
// (--index-impl=sampled; DESIGN.md "Sampled similarity index").
//
// Exact indexes (MemIndex, PersistentIndex) hold one entry per stored
// fingerprint, which at the ROADMAP's billion-fingerprint scale blows the
// RAM/IOPS budget. This tier instead composes, per the sparse-indexing /
// extreme-binning family:
//
//  * a RESIDENT MAP — an exact map covering only the ManifestCache's
//    resident manifests (the mirror invariant's normal put/erase flow);
//    bounded by the cache, not the corpus;
//  * a HOOK TABLE (similarity/hook_table.h) — sampled fingerprint prefixes
//    (similarity/sampling.h; --sample-bits) → champion manifests. Hook
//    entries survive eviction, so a later hook hit can reload an old
//    champion segment into the cache for full-segment dedup;
//  * a LOSS METER (similarity/loss_meter.h) — duplicates the tier missed
//    are stored again and MEASURED (sampled_missed_dup_bytes), not hidden.
//
// Persistence, all under Ns::kIndex with a "sampled-" name prefix (the
// disk index's objects coexist; its rebuild spares this family and vice
// versa), each CRC-sealed via framing::seal_object:
//
//   sampled-meta            sample_bits + max_manifests_per_hook (geometry
//                           owned by the repository), live state
//                           generation, persisted counters; COMMIT POINT
//   sampled-state-g<G>      hook table + loss meter image; only the
//                           generation named by meta is live
//   sampled-warm            ManifestCache residency list (MRU first)
//
// flush() is shadow-paged: state generation G+1 is written first, meta
// commits it, then G is removed. Crash windows: before the meta commit the
// old generation stays live (the new one is swept on reopen); a torn meta
// rebuilds from the hooks namespace — the authoritative fingerprint
// source — losing only counters and loss history, never correctness. The
// index remains advisory throughout: any lost state costs missed
// duplicates (measured), never a wrong restore.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "mhd/index/fingerprint_index.h"
#include "mhd/index/similarity/hook_table.h"
#include "mhd/index/similarity/loss_meter.h"
#include "mhd/store/backend.h"

namespace mhd {

struct SampledIndexConfig {
  /// Hook predicate: low `sample_bits` bits of the fingerprint prefix are
  /// zero (--sample-bits). Expected one hook per 2^bits chunks.
  std::uint32_t sample_bits = 6;
  /// Champion manifests loaded per hook hit (--champions).
  std::uint32_t max_champions = 10;
  /// Cap of each hook's champion list.
  std::uint32_t max_manifests_per_hook = 5;
};

class SampledIndex final : public FingerprintIndex {
 public:
  /// Opens (or initializes) the sampled tier over `backend`. When a
  /// sampled-meta exists its geometry (sample_bits, max_manifests_per_hook)
  /// OVERRIDES the config — geometry is owned by the repository, exactly
  /// like the disk index's shard count.
  explicit SampledIndex(StorageBackend& backend,
                        SampledIndexConfig config = {});
  /// Deliberately does NOT flush (crash-equivalent close; engines flush in
  /// finish(), matching PersistentIndex).
  ~SampledIndex() override = default;

  SampledIndex(const SampledIndex&) = delete;
  SampledIndex& operator=(const SampledIndex&) = delete;

  /// True when `backend` holds a sampled tier (its sampled-meta object).
  static bool present(const StorageBackend& backend);

  const char* impl_name() const override { return "sampled"; }
  std::optional<IndexEntry> lookup(const Digest& fp) override;
  void put(const Digest& fp, const IndexEntry& entry) override;
  /// Resident map only: champions deliberately survive eviction.
  bool erase(const Digest& fp) override;
  bool maybe_contains(const Digest& fp) const override;
  /// Shadow-paged persistence of hook table + loss meter + counters.
  void flush() override;
  /// Resident-map entries (the exact, cache-mirroring part). The sparse
  /// part is sampled_stats().hook_entries.
  std::uint64_t entry_count() const override;
  /// Resident map + hook table. The loss meter is measurement apparatus
  /// and is not counted.
  std::uint64_t ram_bytes() const override;
  std::uint64_t ram_high_water() const override;

  /// Capped at max_champions; empty when fp is not a hook or the hook is
  /// unknown.
  std::vector<Digest> champions_for(const Digest& fp) const override;
  void note_champion_load() override { ++champion_loads_; }
  void note_fresh_chunk(const Digest& hash, std::uint64_t bytes) override {
    meter_.note_stored(hash.prefix64(), bytes);
  }
  SampledStats sampled_stats() const override;
  std::uint64_t missed_dup_bytes() const { return meter_.missed_dup_bytes(); }

  /// Aux blobs live under "sampled-aux-<name>", so a rebuild of this tier
  /// clears them too; the warm list under "sampled-warm".
  void save_aux(const std::string& name, ByteSpan payload) override;
  std::optional<ByteVec> load_aux(const std::string& name) const override;
  void save_warm_list(const std::vector<Digest>& names) override;
  std::vector<Digest> load_warm_list() const override;

  /// Re-derives hook table + loss-meter seed from the hooks namespace (the
  /// authoritative fingerprint source) and persists the result. The ctor's
  /// torn-meta recovery and rebuild_sampled_index() both land here;
  /// counters and loss history reset — missed duplicates, never wrong data.
  void rebuild_from_hooks();

 private:
  void open();
  /// True when generation `gen`'s state blob loaded cleanly (an absent
  /// blob at generation 0 is a fresh index, not corruption).
  bool load_state(std::uint32_t gen);
  void sweep_stale_states();
  void note_ram();

  StorageBackend& backend_;
  SampledIndexConfig cfg_;
  std::unordered_map<Digest, IndexEntry, DigestHasher> resident_;
  similarity::HookTable hooks_;
  similarity::LossMeter meter_;
  std::uint32_t generation_ = 0;  ///< live sampled-state generation
  std::uint64_t champion_loads_ = 0;
  std::uint64_t ram_high_water_ = 0;
};

/// Read-only cross-check of the sampled tier against live manifests
/// (fsck integration; never mutates the backend).
struct SampledCheckReport {
  bool meta_ok = false;
  std::uint64_t hook_entries = 0;
  std::uint64_t champion_refs = 0;
  /// Champion references whose manifest no longer exists (e.g. swept by
  /// GC without a rebuild): must be 0 on a healthy repository.
  std::uint64_t stale_champions = 0;
  std::uint64_t corrupt_objects = 0;
};
SampledCheckReport check_sampled_index(const StorageBackend& backend);

/// Drops every sampled-tier object and rebuilds the hook table from the
/// hooks namespace (sampled fingerprints only; the loss meter is seeded so
/// already-stored chunks do not read as future misses), preserving the
/// persisted geometry when the old meta is readable. Spares every
/// non-"sampled-" index object — the disk index may coexist.
void rebuild_sampled_index(StorageBackend& backend,
                           SampledIndexConfig config = {});

}  // namespace mhd
