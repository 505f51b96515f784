// FingerprintIndex — the chunk-fingerprint → owning-manifest map behind
// every duplicate lookup (the paper's Table 3 concern: index RAM, not
// chunk data, is what limits inline deduplication at scale).
//
// Three implementations share this interface:
//
//  * MemIndex — a plain in-RAM hash map with byte accounting. This is the
//    historical behavior (ManifestCache's global map / the engines' hook
//    map) extracted behind the interface; it vanishes on process exit.
//  * PersistentIndex — MemIndex's map plus the manifest cache's warm
//    residency list and the engines' aux blobs, sealed under Ns::kIndex,
//    so a reopened engine resumes with the working set it closed with
//    (see persistent_index.h for why nothing else is persisted).
//  * SampledIndex — a sampled similarity tier (sparse-indexing style): an
//    exact map only for cache-resident manifests plus a sparse hook table
//    over min-hash-sampled fingerprints pointing at champion manifests.
//    Index RAM scales with the sample rate, not the corpus; the price is a
//    measured dedup-ratio loss, never a wrong restore (see sampled_index.h).
//
// Everything beyond the map that differs between tiers — the warm-restart
// residency list, engine sidecar blobs, the champion/loss-meter hooks of
// the sampled anchor path and the sampled counters — is a virtual here
// whose default does nothing. Engines, the manifest cache, reports and the
// daemon call the interface and never ask which tier they hold; MemIndex
// inherits every default and forgets everything on exit.
//
// The index is advisory, never authoritative: hooks and manifests remain
// the durable truth, so a lost or stale index entry can only cost a missed
// duplicate (data stored fresh — always correct), never a wrong restore.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mhd/hash/digest.h"
#include "mhd/util/bytes.h"

namespace mhd {

/// Which FingerprintIndex implementation an engine routes through
/// (--index-impl). kMem is bit-identical to the pre-index behavior.
enum class IndexImpl { kMem, kDisk, kSampled };

/// Counters of the sampled similarity tier; all zero on the exact tiers.
struct SampledStats {
  std::uint32_t sample_bits = 0;       ///< hook sampling rate (1/2^bits)
  std::uint64_t hook_entries = 0;      ///< sparse hook-table keys
  std::uint64_t hook_table_bytes = 0;  ///< hook-table RAM (keys + champions)
  std::uint64_t champion_loads = 0;    ///< champions loaded on hook hits
  /// Duplicates stored again because no loaded champion covered them —
  /// the measured dedup loss against an exact index.
  std::uint64_t missed_dup_bytes = 0;
  std::uint64_t missed_dup_chunks = 0;
};

class FingerprintIndex {
 public:
  virtual ~FingerprintIndex() = default;

  virtual const char* impl_name() const = 0;

  /// The manifest that indexes the chunk `fp`; nullopt when absent.
  virtual std::optional<Digest> lookup(const Digest& fp) = 0;

  /// Inserts or replaces the owning manifest of `fp`.
  virtual void put(const Digest& fp, const Digest& manifest) = 0;

  /// Removes the entry; returns false when it was absent.
  virtual bool erase(const Digest& fp) = 0;

  /// Durably persists the tier's buffered state (the sampled tier's hook
  /// table). No-op for the exact tiers.
  virtual void flush() {}

  virtual std::uint64_t entry_count() const = 0;

  /// Current resident bytes of the index's in-RAM structures.
  virtual std::uint64_t ram_bytes() const = 0;
  /// High-water of ram_bytes() over the index's lifetime (TABLE III).
  virtual std::uint64_t ram_high_water() const = 0;

  // ---- Tier behaviour. Every default does nothing. ----

  /// Warm-restart residency snapshot: manifest names, MRU first. The
  /// persistent tiers store it under Ns::kIndex; MemIndex keeps nothing
  /// and loads an empty list.
  virtual void save_warm_list(const std::vector<Digest>& /*names*/) {}
  virtual std::vector<Digest> load_warm_list() const { return {}; }

  /// Engine-private sidecar blobs (e.g. FBC's frequency sketch), sealed
  /// like the tier's own objects. A missing or corrupt blob reads back as
  /// nullopt — aux state is advisory. MemIndex keeps nothing.
  virtual void save_aux(const std::string& /*name*/, ByteSpan /*payload*/) {}
  virtual std::optional<ByteVec> load_aux(const std::string& /*name*/) const {
    return std::nullopt;
  }

  /// Sampled anchor path: the champion manifests to load for `fp`, newest
  /// first. Empty when `fp` is not a known hook, and always on exact tiers.
  virtual std::vector<Digest> champions_for(const Digest& /*fp*/) const {
    return {};
  }
  /// Counts one champion manifest actually loaded on a hook hit.
  virtual void note_champion_load() {}
  /// Loss metering: every chunk of a freshly built manifest (stored data,
  /// not reloads) flows through here from ManifestCache::insert.
  virtual void note_fresh_chunk(const Digest& /*hash*/,
                                std::uint64_t /*bytes*/) {}

  virtual SampledStats sampled_stats() const { return {}; }
};

}  // namespace mhd
