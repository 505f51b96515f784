// PersistentIndex — the disk-resident FingerprintIndex (--index-impl=disk).
//
// Layout, all under Ns::kIndex and all CRC-sealed with framing::seal_object
// (self-verifying even on a bare backend; under FramedBackend the outer
// frame verifies a second time):
//
//   meta                     geometry + shard page generations + journal
//                            window; the COMMIT POINT of every compaction
//   shard-<s>-g<gen>         sorted (fp, manifest, offset) bucket page;
//                            only the generation named by meta is live
//   journal-<seq>            append-only batches of put/erase records
//                            covering everything newer than the pages
//   bloom                    BloomFilter snapshot (negative-lookup front)
//   warm                     ManifestCache residency list (MRU first) for
//                            warm restart
//
// Write path: puts go to an in-RAM delta map, the bloom filter, and a
// pending journal batch (sealed to a journal-<seq> object every
// journal_batch records). When the delta reaches compact_threshold, the
// journal is folded into the bucket pages shadow-paged: new page
// generations are written first, meta commits them, and only then are old
// pages and consumed journal segments removed. Every crash window is safe:
//  * before meta: old pages + intact journal replay to the same state
//    (journal records are absolute, so replay is idempotent);
//  * a torn meta: the index rebuilds from the hooks namespace, which stays
//    authoritative (entries re-learned, offsets degrade to 0);
//  * after meta: stale pages/segments are swept on the next open.
// A torn journal tail (partial segment) is truncated on reopen — records
// before it are replayed, the tear and everything after are dropped.
//
// Reads go delta-first, then through a weight-bounded LruCache of bucket
// pages (write-back: compaction mutates pages in cache and flushes dirty
// ones before the meta commit), fronted by the bloom filter. RAM is
// bounded by cache_bytes + the delta/bloom, not by index size.
//
// Concurrency (the multi-tenant daemon's requirement): point operations
// from many sessions run in parallel under FINE-GRAINED SHARD LOCKING.
// The lock hierarchy, outermost first:
//
//   struct_mu_ (shared_mutex)   point ops hold it shared; structural
//                               changes (compaction, flush, warm/aux
//                               writes, rebuild) hold it exclusive
//   shard mutex                 one per bucket shard, serializes the
//                               delta entries of that shard
//   leaf mutexes                bloom_mu_ / cache_mu_ / journal_mu_,
//                               acquired one at a time, never nested
//
// Journal appends are GROUP-COMMITTED: sessions push records into one
// shared pending batch under journal_mu_, and whichever session crosses
// the batch boundary seals the whole batch — records from all sessions —
// as a single journal segment (one backend write instead of one per
// record). journal_records_appended()/journal_segments_written() expose
// the achieved batching ratio.
//
// The index is advisory: a lost entry costs a missed duplicate, never a
// wrong restore. Lookups may race puts and observe either order — both
// answers are correct by that contract. The *backend* must tolerate
// concurrent calls (the daemon interposes SyncBackend; single-threaded
// callers need nothing).
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "mhd/container/bloom_filter.h"
#include "mhd/container/lru_cache.h"
#include "mhd/index/fingerprint_index.h"
#include "mhd/store/backend.h"

namespace mhd {

struct PersistentIndexConfig {
  /// Bucket-page count; rounded up to a power of two, clamped to [1,4096].
  std::uint32_t shards = 64;
  /// Weight budget of the hot-page LruCache (--index-cache-mb).
  std::uint64_t cache_bytes = 8ull << 20;
  /// Bloom sizing for `expected_keys`. An existing bloom snapshot keeps
  /// the size it was written with.
  std::uint32_t bloom_bits_per_key = 10;
  std::uint64_t expected_keys = 1u << 20;
  /// Journal records buffered in RAM before a segment object is written —
  /// the group-commit window shared by every concurrent session.
  std::uint32_t journal_batch = 64;
  /// Delta entries that trigger folding the journal into the pages.
  std::uint64_t compact_threshold = 4096;
};

namespace index_detail {
/// One bucket-page / journal record as stored on disk (56 bytes framed:
/// fingerprint, owning manifest, chunk offset, container id; journal
/// records carry one extra op byte in front).
struct Rec {
  Digest fp;
  Digest manifest;
  std::uint64_t offset = 0;
  std::uint64_t container = IndexEntry::kNoContainer;
};
}  // namespace index_detail

class PersistentIndex final : public FingerprintIndex {
 public:
  explicit PersistentIndex(StorageBackend& backend,
                           PersistentIndexConfig config = {});
  /// Deliberately does NOT flush: an unflushed close is crash-equivalent
  /// and recovery must cope. Engines flush explicitly in finish().
  ~PersistentIndex() override = default;

  PersistentIndex(const PersistentIndex&) = delete;
  PersistentIndex& operator=(const PersistentIndex&) = delete;

  /// True when `backend` holds a persistent index (its meta object).
  static bool present(const StorageBackend& backend);

  const char* impl_name() const override { return "disk"; }
  std::optional<IndexEntry> lookup(const Digest& fp) override;
  void put(const Digest& fp, const IndexEntry& entry) override;
  bool erase(const Digest& fp) override;
  bool maybe_contains(const Digest& fp) const override;
  void flush() override;
  std::uint64_t entry_count() const override;
  std::uint64_t ram_bytes() const override;
  std::uint64_t ram_high_water() const override;

  /// Folds delta + journal into the bucket pages (see file comment).
  void compact();

  std::uint64_t journal_segment_count() const;
  std::uint64_t compaction_count() const;
  /// High-water of the page cache's weight alone — the budget-bounded part.
  std::uint64_t page_cache_ram_high_water() const;
  std::uint64_t page_cache_budget() const { return cfg_.cache_bytes; }

  /// Group-commit observability: put/erase records appended since open vs
  /// journal segment objects actually written. records/segments is the
  /// achieved batch size — with S concurrent sessions it approaches
  /// journal_batch, i.e. one backend write absorbs a whole cross-session
  /// window of appends.
  std::uint64_t journal_records_appended() const;
  std::uint64_t journal_segments_written() const;

  /// Warm list under "warm", aux blobs under "aux-<name>" (see
  /// FingerprintIndex for the contracts).
  void save_warm_list(const std::vector<Digest>& names) override;
  std::vector<Digest> load_warm_list() const override;
  void save_aux(const std::string& name, ByteSpan payload) override;
  std::optional<ByteVec> load_aux(const std::string& name) const override;

  /// Bucket pages that failed their CRC and were treated as empty (lost
  /// entries degrade to missed duplicates, never wrong data).
  std::uint64_t corrupt_page_reads() const;

 private:
  struct Page {
    std::vector<index_detail::Rec> recs;  ///< sorted by fp
    bool dirty = false;
    /// Generation this page will be written as (meaningful while dirty).
    std::uint32_t pending_gen = 0;
    std::uint64_t weight() const { return 64 + recs.size() * 48; }
  };
  /// Delta value: engaged = put, disengaged = erase tombstone.
  using DeltaValue = std::optional<IndexEntry>;

  /// Per-shard write state: the shard's slice of the delta map under its
  /// own mutex. Point ops lock exactly one shard; compaction (exclusive
  /// on struct_mu_) owns them all without locking.
  struct Shard {
    std::mutex mu;
    std::unordered_map<Digest, DeltaValue, DigestHasher> delta;
  };

  std::uint32_t shard_of(const Digest& fp) const;
  /// Sorted-page probe: loads the shard page through the cache and copies
  /// the match out, all under cache_mu_ (the returned value never aliases
  /// cache memory). Counts a corrupt page exactly once per load.
  std::optional<IndexEntry> probe_page(std::uint32_t shard, const Digest& fp);
  /// Ground-truth point lookup (delta, then page — no bloom): the ctor's
  /// journal replay and the no-op-put check use it.
  std::optional<IndexEntry> lookup_quiet(const Digest& fp);
  void write_page_at(std::uint32_t shard, std::uint32_t gen,
                     const Page& page);
  /// Appends one record to the shared pending batch (journal_mu_), sealing
  /// a full batch as one segment — the group-commit point.
  void append_journal_record(Byte op, const Digest& fp, const IndexEntry& e);
  /// Caller holds journal_mu_ or struct_mu_ exclusively.
  void write_pending_segment_locked();
  void rebuild_bloom_from_pages();
  void replay_journal();
  void sweep_stale_objects();
  void rebuild_from_hooks();
  /// Caller holds struct_mu_ exclusively (or is the constructor).
  void compact_exclusive();
  void write_meta();
  void write_bloom();
  void init_shards();
  std::uint64_t ram_bytes_estimate() const;
  void note_ram();

  StorageBackend& backend_;
  PersistentIndexConfig cfg_;
  BloomFilter bloom_;
  LruCache<std::uint32_t, Page> cache_;
  std::vector<std::unique_ptr<Shard>> shards_;

  ByteVec pending_;               ///< serialized records of the open batch
  std::uint32_t pending_count_ = 0;
  std::vector<std::uint32_t> gens_;  ///< live generation per shard
  std::uint64_t first_seq_ = 0;      ///< oldest live journal segment
  std::uint64_t next_seq_ = 0;       ///< next segment number to write
  std::uint64_t page_count_ = 0;     ///< entries folded into pages (meta)
  std::uint64_t compactions_ = 0;
  std::uint64_t corrupt_pages_ = 0;        ///< guarded by cache_mu_
  std::uint64_t page_cache_high_water_ = 0;  ///< guarded by cache_mu_

  std::atomic<std::uint64_t> count_{0};        ///< exact live entry count
  std::atomic<std::uint64_t> delta_total_{0};  ///< entries across shards
  std::atomic<std::uint64_t> journal_records_{0};
  std::atomic<std::uint64_t> journal_segments_{0};
  std::atomic<std::uint64_t> ram_high_water_{0};

  /// Lock hierarchy — see file comment. struct_mu_ > shard.mu > leaves.
  mutable std::shared_mutex struct_mu_;
  mutable std::mutex bloom_mu_;
  mutable std::mutex cache_mu_;
  mutable std::mutex journal_mu_;
};

/// Read-only cross-check of the persistent index against the live
/// hooks/manifests (scrub integration; never mutates the backend).
struct IndexCheckReport {
  bool meta_ok = false;
  std::uint64_t entries = 0;
  /// Index entries whose target manifest no longer exists (e.g. after an
  /// out-of-band deletion): must be 0 on a healthy repository.
  std::uint64_t stale_entries = 0;
  /// Hooks with no index entry (informational: a lost journal tail —
  /// the duplicates are simply re-learned through the hooks).
  std::uint64_t unindexed_hooks = 0;
  std::uint64_t corrupt_objects = 0;
};
IndexCheckReport check_index(const StorageBackend& backend);

/// Drops every index object and rebuilds the index from the hooks
/// namespace (the authoritative fingerprint source), preserving the
/// persisted geometry when the old meta is readable. Used by GC (swept
/// manifests must leave no index entries) and fsck's repair path.
void rebuild_index(StorageBackend& backend, PersistentIndexConfig config = {});

}  // namespace mhd
