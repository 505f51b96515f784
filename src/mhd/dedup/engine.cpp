#include "mhd/dedup/engine.h"

#include <algorithm>

#include "mhd/index/mem_index.h"
#include "mhd/index/persistent_index.h"
#include "mhd/index/sampled_index.h"
#include "mhd/pipeline/ingest_pipeline.h"
#include "mhd/store/restore_reader.h"
#include "mhd/util/buffer_pool.h"
#include "mhd/util/hex.h"
#include "mhd/util/timer.h"

namespace mhd {

void DedupEngine::recycle_chunk(ByteVec&& bytes) {
  if (bytes.capacity() > 0) chunk_buffer_pool().release(std::move(bytes));
}

void DedupEngine::seed_bloom_from_hooks(BloomFilter& bloom,
                                        const StorageBackend& backend) {
  for (const auto& name : backend.list(Ns::kHook)) {
    const auto bytes = hex_decode(name);
    if (!bytes || bytes->size() != Digest::kSize) continue;
    Digest d;
    std::copy(bytes->begin(), bytes->end(), d.bytes.begin());
    bloom.insert(d.prefix64());
  }
}

FingerprintIndex& DedupEngine::fp_index() {
  if (!fp_index_) {
    if (cfg_.index_impl == IndexImpl::kDisk) {
      index_was_present_ = PersistentIndex::present(store_.backend());
      PersistentIndexConfig pc;
      pc.shards = cfg_.index_shards;
      pc.cache_bytes = cfg_.index_cache_bytes;
      pc.bloom_bits_per_key = cfg_.index_bloom_bits_per_key;
      pc.journal_batch = cfg_.index_journal_batch;
      pc.compact_threshold = cfg_.index_compact_threshold;
      fp_index_ = std::make_unique<PersistentIndex>(store_.backend(), pc);
    } else if (cfg_.index_impl == IndexImpl::kSampled) {
      index_was_present_ = SampledIndex::present(store_.backend());
      SampledIndexConfig sc;
      sc.sample_bits = cfg_.sample_bits;
      sc.max_champions = cfg_.max_champions;
      sc.max_manifests_per_hook = cfg_.max_manifests_per_hook;
      fp_index_ = std::make_unique<SampledIndex>(store_.backend(), sc);
    } else {
      fp_index_ = std::make_unique<MemIndex>();
    }
  }
  return *fp_index_;
}

void DedupEngine::open_anchor_path(ManifestCache& cache) {
  if (cfg_.use_bloom) {
    hook_bloom_.emplace(cfg_.bloom_bytes);
    seed_bloom_from_hooks(*hook_bloom_, store_.backend());
  }
  restore_warm_state(cache);
}

void DedupEngine::restore_warm_state(ManifestCache& cache) {
  if (index_was_present_) cache.warm_load(fp_index_->load_warm_list());
}

void DedupEngine::persist_index_state(ManifestCache& cache) {
  if (!fp_index_) return;
  fp_index_->save_warm_list(cache.resident_names());
  fp_index_->flush();
}

std::optional<ManifestCache::Located> DedupEngine::find_anchor(
    ManifestCache& cache, const Digest& hash, AccessKind kind) {
  if (auto loc = cache.lookup_hash(hash)) return loc;
  if (sampled_mode()) {
    if (!load_champions(cache, hash)) return std::nullopt;
  } else {
    if (hook_bloom_ && !hook_bloom_->maybe_contains(hash.prefix64())) {
      return std::nullopt;
    }
    const auto hook =
        degrade_on_corruption([&] { return store_.get_hook(hash, kind); });
    if (!hook || hook->size() != Digest::kSize) return std::nullopt;
    Digest manifest_name;
    std::copy(hook->begin(), hook->end(), manifest_name.bytes.begin());
    if (degrade_on_corruption([&] { return cache.load(manifest_name); }) ==
        nullptr) {
      return std::nullopt;
    }
  }
  return cache.lookup_hash(hash);
}

bool DedupEngine::load_champions(ManifestCache& cache, const Digest& hash) {
  bool loaded = false;
  for (const Digest& name : fp_index().champions_for(hash)) {
    if (cache.cached(name) != nullptr) continue;
    Manifest* m = degrade_on_corruption([&] { return cache.load(name); });
    if (m == nullptr) continue;
    fp_index().note_champion_load();
    loaded = true;
  }
  return loaded;
}

void DedupEngine::write_hook(const Digest& hash, const Digest& manifest) {
  store_.put_hook(hash, manifest.span());
  if (hook_bloom_) hook_bloom_->insert(hash.prefix64());
}

Digest DedupEngine::unique_store_digest(const Digest& base) const {
  Digest d = base;
  std::uint64_t salt = 0;
  while (store_.backend().exists(Ns::kDiskChunk, d.hex()) ||
         store_.backend().exists(Ns::kManifest, d.hex())) {
    ByteVec salted = to_vec(base.span());
    append_le<std::uint64_t>(salted, ++salt);
    d = Sha1::hash(salted);
  }
  return d;
}

std::unique_ptr<HashedChunkStream> DedupEngine::open_ingest(
    ByteSource& data, std::uint64_t expected_chunk_bytes) {
  auto chunker =
      make_chunker(cfg_.chunker, cfg_.chunker_config(expected_chunk_bytes));
  return open_hashed_stream(data, std::move(chunker), cfg_.ingest_threads,
                            cfg_.pipeline_queue_depth, &pipeline_stats_);
}

void DedupEngine::add_file(const std::string& file_name, ByteSource& data) {
  const Stopwatch watch;
  ++counters_.input_files;
  if (rewrite_) rewrite_->begin_file();
  end_dup_run();  // duplicate slices never span file boundaries
  process_file(file_name, data);
  end_dup_run();
  counters_.cpu_seconds += watch.seconds();
}

std::optional<ByteVec> DedupEngine::reconstruct(
    const std::string& file_name) const {
  // Restore never degrades: a corrupt object stops the reader short and the
  // restore fails (nullopt) instead of returning wrong bytes. One read the
  // size of the file drains the reader with one range read per recipe
  // entry.
  auto reader = RestoreReader::open(store_.backend(), file_name);
  if (!reader) return std::nullopt;
  ByteVec out(static_cast<std::size_t>(reader->total_length()));
  if (reader->read(out) != out.size() || !reader->ok()) return std::nullopt;
  return out;
}

}  // namespace mhd
