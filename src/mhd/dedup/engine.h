// DedupEngine — the common interface of all deduplication algorithms
// (CDC, Bimodal, SubChunk, SparseIndexing, FBC, ExtremeBinning, MHD).
//
// An engine consumes a backup stream file-by-file, writes DiskChunks /
// Hooks / Manifests / FileManifests through an ObjectStore (which counts
// categorized disk accesses), and exposes the counters the paper's
// analysis uses: N (stored chunks), D (duplicate chunks), L (duplicate
// data slices), F (files not completely duplicate), duplicate bytes, HHR
// statistics and CPU time. reconstruct() restores any file byte-exactly
// from the store — the correctness invariant every test suite leans on.
//
// Engines that keep a manifest cache (MHD, CDC, Bimodal, FBC) detect a
// duplicate the same way (§III, BME): a small-chunk hash hit, on a Hook or
// on a cached manifest entry, anchors the match. That lookup is written
// once, here (find_anchor); the engines differ only in what they do with
// the anchor.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "mhd/chunk/byte_source.h"
#include "mhd/chunk/chunk_stream.h"
#include "mhd/chunk/make_chunker.h"
#include "mhd/container/bloom_filter.h"
#include "mhd/core/manifest_cache.h"
#include "mhd/dedup/rewrite.h"
#include "mhd/hash/sha1.h"
#include "mhd/index/fingerprint_index.h"
#include "mhd/store/object_store.h"
#include "mhd/store/store_errors.h"

namespace mhd {

struct EngineConfig {
  std::uint32_t ecs = 4096;  ///< expected (small) chunk size, bytes
  std::uint32_t sd = 1000;   ///< sample distance, in hashes
  ChunkerKind chunker = ChunkerKind::kRabin;  ///< cut-point algorithm
  /// Scan-loop implementation (--chunker-impl). Purely a speed knob: every
  /// implementation yields bit-identical cut points, so dedup results do
  /// not depend on it.
  ChunkerImpl chunker_impl = ChunkerImpl::kAuto;
  /// SHA-1 kernel selection (--hash-impl). Like chunker_impl a pure speed
  /// knob: every kernel produces bit-identical digests. Applied
  /// process-wide at engine construction (the fingerprint kernel is global
  /// state, like the allocator).
  Sha1Impl hash_impl = Sha1Impl::kAuto;

  /// ChunkerConfig for this engine at the given expected chunk size, with
  /// the engine's scan-implementation choice applied. Engines must build
  /// their chunkers through this so --chunker-impl reaches the hot loop.
  ChunkerConfig chunker_config(std::uint64_t expected_bytes) const {
    ChunkerConfig cc = ChunkerConfig::from_expected(expected_bytes);
    cc.impl = chunker_impl;
    return cc;
  }

  /// Inert: nothing in the library reads it, and ingest is always serial.
  /// It stays only because the benchmark harness still assigns and prints
  /// it; the next change to the benchmark removes both uses and the field.
  std::uint32_t ingest_threads = 0;

  bool use_bloom = true;
  std::size_t bloom_bytes = 4 << 20;  ///< paper: 100 MB; scaled for corpus
  std::size_t manifest_cache_capacity = 64;
  /// RAM budget for cached manifests in bytes (0 = count-limited only).
  /// Giving every algorithm the same budget makes the comparison fair:
  /// metadata-heavy algorithms fit fewer manifests and lose locality.
  std::uint64_t manifest_cache_bytes = 0;

  // SparseIndexing parameters (Section V: <=10 champions, a hook maps to
  // <=5 manifests; its segment is fixed at ECS*SD*5).
  std::uint32_t max_champions = 10;
  std::uint32_t max_manifests_per_hook = 5;

  // MHD ablation switches (DESIGN.md section 6).
  bool enable_edge_hash = true;
  bool enable_backward_extension = true;
  bool enable_shm = true;

  // Fingerprint-index routing (DESIGN.md "Fingerprint index"). kMem keeps
  // the historical always-resident map; kDisk adds the warm residency list
  // under Ns::kIndex (--index-impl). The two make bit-identical dedup
  // decisions — kDisk additionally resumes its manifest cache across
  // process restarts. kSampled is the similarity tier (DESIGN.md "Sampled
  // similarity index"): index RAM scales with the sample rate, dedup
  // decisions may miss duplicates (measured, never hidden), restores stay
  // byte-exact.
  IndexImpl index_impl = IndexImpl::kMem;
  /// Sampled tier: a fingerprint whose low `sample_bits` bits (of its
  /// prefix64) are zero is a hook — expected one hook per 2^bits chunks
  /// (--sample-bits). Champion fan-out reuses max_champions (--champions)
  /// and max_manifests_per_hook caps each hook's champion list.
  std::uint32_t sample_bits = 6;
  /// Inert: nothing in the library reads it, since the disk tier keeps no
  /// page cache. It stays only because the benchmark harness still assigns
  /// and prints it; the next change to the benchmark removes both uses and
  /// the field.
  std::uint64_t index_cache_bytes = 8ull << 20;

  // Durability stack (DESIGN.md "Durability model"), built by BackendStack
  // (repo/repository.h). `framed` layers FramedBackend (CRC32C
  // self-verifying objects, typed corrupt-vs-absent errors) over the
  // repository; `fault_plan` adds a FaultInjectingBackend *below* the
  // framing speaking the plan mini-language in store/fault_backend.h
  // (--fault-plan). Dedup results are bit-identical with framing on.
  bool framed = false;
  std::string fault_plan;

  // Container packing + rewrite (DESIGN.md "Container store and restore
  // path"). 0 keeps the legacy per-chunk layout; with a size the stack
  // gains a ContainerBackend of that container size on top
  // (--container-mb) and `rewrite` selects the fragmentation-control
  // algorithm applied at dedup time (--rewrite).
  std::uint64_t container_bytes = 0;
  /// RAM budget of the restore path's whole-container LRU cache
  /// (--restore-cache-mb).
  std::uint64_t restore_cache_bytes = 32ull << 20;
  RewriteMode rewrite = RewriteMode::kNone;
  std::uint64_t cbr_segment_bytes = 4ull << 20;
  std::uint32_t cbr_cap = 16;
  double har_utilization = 0.5;
};

struct EngineCounters {
  std::uint64_t input_bytes = 0;
  std::uint64_t input_files = 0;
  std::uint64_t input_chunks = 0;   ///< small chunks hashed from the stream
  std::uint64_t dup_chunks = 0;     ///< D
  std::uint64_t dup_bytes = 0;
  std::uint64_t dup_slices = 0;     ///< L
  std::uint64_t stored_chunks = 0;  ///< N: chunks written as new data
  std::uint64_t files_with_data = 0;  ///< F: files not completely duplicate

  // MHD-specific (zero for baselines).
  std::uint64_t hhr_operations = 0;
  std::uint64_t hhr_chunk_reloads = 0;  ///< Fig. 10(b) "HHR Cost"
  std::uint64_t shm_merged_hashes = 0;

  /// Graceful degradation: reads that failed CRC verification and were
  /// treated as non-duplicate (hook/manifest lookups, HHR chunk reloads)
  /// instead of aborting the ingest. Data is still stored correctly —
  /// only the dedup ratio suffers. Always zero on a healthy store.
  std::uint64_t corruption_fallbacks = 0;

  /// Duplicates declined by the rewrite controller and stored fresh for
  /// restore locality (always zero with --rewrite=none).
  std::uint64_t rewritten_chunks = 0;
  std::uint64_t rewritten_bytes = 0;

  double cpu_seconds = 0;

  double dad() const {
    return dup_slices == 0
               ? 0.0
               : static_cast<double>(dup_bytes) / static_cast<double>(dup_slices);
  }
};

class DedupEngine {
 public:
  /// Throws std::invalid_argument for a rewrite mode when `store` carries
  /// no container layer, whose placement the rewrite controller reads.
  DedupEngine(ObjectStore& store, const EngineConfig& config)
      : store_(store), cfg_(config) {
    set_sha1_impl(config.hash_impl);
    if (cfg_.rewrite != RewriteMode::kNone) {
      if (store.containers() == nullptr) {
        throw std::invalid_argument(
            std::string("rewrite mode ") + rewrite_mode_name(cfg_.rewrite) +
            " needs a container layer under the engine's store");
      }
      RewriteConfig rc;
      rc.mode = cfg_.rewrite;
      rc.segment_bytes = cfg_.cbr_segment_bytes;
      rc.cap = cfg_.cbr_cap;
      rc.har_utilization = cfg_.har_utilization;
      rewrite_ = std::make_unique<RewriteController>(rc, *store.containers());
    }
  }
  virtual ~DedupEngine() = default;

  virtual std::string name() const = 0;

  /// Deduplicates one file of the backup stream (CPU time is accumulated
  /// into counters().cpu_seconds).
  void add_file(const std::string& file_name, ByteSource& data);

  /// Flushes buffered state: dirty manifests, open chunk writers, indexes.
  /// Must be called once after the last add_file.
  virtual void finish() = 0;

  /// Restores a previously added file byte-exactly from the store by
  /// draining a RestoreReader into one buffer — the same path as streaming
  /// restores, including its bounded retry of transient read errors.
  /// nullopt when the file is unknown or a corrupt object stops the
  /// restore short. Reads bypass access accounting (restore is not
  /// deduplication work).
  std::optional<ByteVec> reconstruct(const std::string& file_name) const;

  /// Closes a snapshot generation for the rewrite controller (HAR folds
  /// this generation's container utilization into its sparse set). The
  /// simulation runner calls this at every corpus snapshot boundary,
  /// including before finish(). No-op without --rewrite.
  void end_snapshot() {
    if (rewrite_) rewrite_->end_snapshot();
  }

  const EngineCounters& counters() const { return counters_; }
  const EngineConfig& config() const { return cfg_; }

  /// Manifests loaded from disk into the cache (the paper's TABLE V).
  virtual std::uint64_t manifest_loads() const { return 0; }

  /// Bytes of auxiliary in-RAM index structures beyond the manifest cache
  /// (the fingerprint index's RAM high-water; SparseIndexing's sparse
  /// index; the paper's TABLE III).
  virtual std::uint64_t index_ram_bytes() const {
    return fp_index_ ? fp_index_->ram_high_water() : 0;
  }

  /// The engine's fingerprint index, if it routes through one (nullptr
  /// for engines with private similarity indexes: SparseIndexing, SubChunk,
  /// ExtremeBinning). Callers read tier state through its interface.
  const FingerprintIndex* fingerprint_index() const { return fp_index_.get(); }
  /// Index implementation name for reports: "mem" | "disk" | "sampled",
  /// or "none" for engines that never build a FingerprintIndex.
  const char* index_impl_name() const {
    return fp_index_ ? fp_index_->impl_name() : "none";
  }
  ObjectStore& store() { return store_; }
  const ObjectStore& store() const { return store_; }

  /// Name digest used for a file's DiskChunk / Manifest / FileManifest.
  static Digest file_digest(const std::string& file_name) {
    return Sha1::hash(as_bytes(file_name));
  }

  /// Rebuilds a bloom filter from the hooks already persisted in the
  /// backend, so an engine opened on an existing repository (e.g. the
  /// dedup_cli resuming a backup store) still detects duplicates. Hook
  /// file names are the hex of the hook's chunk hash.
  static void seed_bloom_from_hooks(BloomFilter& bloom,
                                    const StorageBackend& backend);

 protected:
  virtual void process_file(const std::string& file_name, ByteSource& data) = 0;

  /// Opens the top-level ingest stream over `data` with a chunker of the
  /// engine's configured kind at `expected_chunk_bytes`. Reading, chunking
  /// and SHA-1 run on the calling thread; ingest parallelism comes from
  /// running streams side by side (DESIGN.md "Where ingest parallelism
  /// comes from").
  HashedChunkStream open_ingest(ByteSource& data,
                                std::uint64_t expected_chunk_bytes);

  /// Lazily creates the configured FingerprintIndex (MemIndex,
  /// PersistentIndex or SampledIndex over the store's backend) — the one
  /// place an engine names a concrete tier. Callable from derived constructors'
  /// member-init lists so the index can be handed to a ManifestCache.
  /// Whether a persisted index already existed (a reopen) is captured at
  /// creation for restore_warm_state().
  FingerprintIndex& fp_index();

  /// Opens the anchor path over the engine's manifest cache: seeds the
  /// Hook bloom from the Hooks already in the repository (so an engine
  /// opened on an existing repository still detects duplicates), then
  /// reloads the warm residency (restore_warm_state). MHD, CDC, Bimodal
  /// and FBC call it once from their constructors, after the cache exists.
  void open_anchor_path(ManifestCache& cache);

  /// End-of-run persistence: saves the cache residency list into the
  /// index and flushes it (the sampled tier's hook table). Call from
  /// finish() after the cache flush. MemIndex keeps nothing.
  void persist_index_state(ManifestCache& cache);

  /// The anchor lookup for one incoming small-chunk hash (§III, BME):
  ///  1. the cached manifests (through the fingerprint index);
  ///  2. sampled tier: load the hash's champion manifests, retry the cache;
  ///     a miss is stored fresh and the loss meter counts it;
  ///  3. exact tiers: bloom gate, then the on-disk Hook (read as `kind`),
  ///     then its manifest, then retry the cache.
  /// Hook and manifest reads degrade_on_corruption: a damaged object costs
  /// a missed duplicate, never a failed ingest.
  std::optional<ManifestCache::Located> find_anchor(ManifestCache& cache,
                                                    const Digest& hash,
                                                    AccessKind kind);

  /// Writes the Hook `hash` → `manifest` and adds it to the bloom gate.
  void write_hook(const Digest& hash, const Digest& manifest);

  /// Returns `base`, salted until no DiskChunk/Manifest with that name
  /// exists. DiskChunks are immutable and may be referenced by other
  /// files' manifests, so re-ingesting a file name (or a colliding
  /// container id) must never append to an existing object.
  Digest unique_store_digest(const Digest& base) const;

  /// Graceful degradation: runs a dedup-index lookup (hook/manifest read)
  /// and maps CorruptObjectError to the lookup's "not found" value — the
  /// region is simply treated as non-duplicate and stored fresh, which is
  /// always correct, and the event is counted as a corruption_fallback.
  /// Restore paths must NOT use this: there, corruption is a hard error.
  template <typename Fn>
  auto degrade_on_corruption(Fn&& fn) -> decltype(fn()) {
    try {
      return fn();
    } catch (const CorruptObjectError&) {
      ++counters_.corruption_fallbacks;
      return decltype(fn()){};
    }
  }

  /// Tracks the L counter: call per chunk decision in stream order.
  void note_duplicate(std::uint64_t bytes) {
    if (!in_dup_run_) {
      ++counters_.dup_slices;
      in_dup_run_ = true;
    }
    ++counters_.dup_chunks;
    counters_.dup_bytes += bytes;
  }
  /// `bytes` advances the rewrite controller's segment position (CBR
  /// segments are measured over the whole stream, not just duplicates).
  void note_unique(std::uint64_t bytes = 0) {
    in_dup_run_ = false;
    if (rewrite_ && bytes > 0) rewrite_->on_stream_bytes(bytes);
  }
  void end_dup_run() { in_dup_run_ = false; }

  /// The rewrite decision for one detected duplicate: true admits the
  /// in-place reference, false directs the engine to store the bytes
  /// fresh (counted as a rewritten chunk). Engines call this at every
  /// duplicate-decision site before emitting the reference.
  bool admit_duplicate(const Digest& chunk_name, std::uint64_t offset,
                       std::uint64_t size) {
    if (!rewrite_) return true;
    if (rewrite_->admit(chunk_name, offset, size)) return true;
    ++counters_.rewritten_chunks;
    counters_.rewritten_bytes += size;
    return false;
  }

  /// Segment-position advance for bulk paths that consume stream bytes
  /// without per-chunk decisions (MHD's match extension).
  void advance_rewrite_stream(std::uint64_t bytes) {
    if (rewrite_ && bytes > 0) rewrite_->on_stream_bytes(bytes);
  }

  ObjectStore& store_;
  EngineConfig cfg_;
  EngineCounters counters_;

 private:
  /// Warm restart: when a persisted index was reopened, reloads the
  /// manifest cache's previous residency (saved by persist_index_state)
  /// so the engine resumes with the exact working set it closed with.
  /// Reads FingerprintIndex::load_warm_list, so it does nothing for
  /// MemIndex or a freshly created index.
  void restore_warm_state(ManifestCache& cache);

  /// True when this engine routes through the sampled similarity tier:
  /// find_anchor then loads champions instead of taking the exact bloom +
  /// get_hook path, which assumes every stored fingerprint is findable
  /// (the sampled tier deliberately forgets).
  bool sampled_mode() const { return cfg_.index_impl == IndexImpl::kSampled; }

  /// Loads the hash's champion manifests that are not cached yet; true
  /// when at least one loaded.
  bool load_champions(ManifestCache& cache, const Digest& hash);

  bool in_dup_run_ = false;
  std::unique_ptr<FingerprintIndex> fp_index_;
  std::unique_ptr<RewriteController> rewrite_;
  bool index_was_present_ = false;  ///< persisted index existed before open
  /// Negative gate in front of the Hook lookup; engaged by
  /// open_anchor_path when cfg_.use_bloom.
  std::optional<BloomFilter> hook_bloom_;
};

}  // namespace mhd
