#include "mhd/dedup/engine.h"

#include <algorithm>

#include "mhd/index/mem_index.h"
#include "mhd/index/persistent_index.h"
#include "mhd/index/sampled_index.h"
#include "mhd/store/restore_reader.h"
#include "mhd/util/hex.h"
#include "mhd/util/timer.h"

namespace mhd {

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

HashedChunkStream DedupEngine::open_ingest(
    ByteSource& data, std::uint64_t expected_chunk_bytes) {
  return HashedChunkStream(
      data,
      make_chunker(cfg_.chunker, cfg_.chunker_config(expected_chunk_bytes)));
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

AnchoredEngine::AnchoredEngine(ObjectStore& store, const EngineConfig& config,
                               bool hook_flags)
    : DedupEngine(store, config),
      fp_index_(make_fp_index()),
      cache_(store, config.manifest_cache_capacity, hook_flags,
             config.manifest_cache_bytes, fp_index_.get()) {
  if (cfg_.use_bloom) {
    hook_bloom_.emplace(cfg_.bloom_bytes);
    seed_bloom_from_hooks(*hook_bloom_, store_.backend());
  }
  if (index_was_present_) cache_.warm_load(fp_index_->load_warm_list());
}

std::unique_ptr<FingerprintIndex> AnchoredEngine::make_fp_index() {
  if (cfg_.index_impl == IndexImpl::kDisk) {
    index_was_present_ = PersistentIndex::present(store_.backend());
    return std::make_unique<PersistentIndex>(store_.backend());
  }
  if (cfg_.index_impl == IndexImpl::kSampled) {
    index_was_present_ = SampledIndex::present(store_.backend());
    SampledIndexConfig sc;
    sc.sample_bits = cfg_.sample_bits;
    sc.max_champions = cfg_.max_champions;
    sc.max_manifests_per_hook = cfg_.max_manifests_per_hook;
    return std::make_unique<SampledIndex>(store_.backend(), sc);
  }
  return std::make_unique<MemIndex>();
}

void AnchoredEngine::finish() {
  cache_.flush();
  save_index_aux();
  persist_index_state();
}

void AnchoredEngine::persist_index_state() {
  fp_index_->save_warm_list(cache_.resident_names());
  fp_index_->flush();
}

AnchoredEngine::FileOut AnchoredEngine::open_file(
    const std::string& file_name) {
  current_.clear();
  const Digest dig = unique_store_digest(file_digest(file_name));
  return {dig, store_.open_chunk(dig.hex()), Manifest(dig),
          FileManifest(file_name)};
}

void AnchoredEngine::close_file(FileOut& out) {
  if (out.writer.bytes_written() > 0) {
    out.writer.close();
    store_.put_manifest(out.dig.hex(),
                        out.manifest.serialize(cache_.hook_flags()));
    cache_.insert(out.dig, std::move(out.manifest), /*dirty=*/false);
    ++counters_.files_with_data;
  }
  store_.put_file_manifest(file_digest(out.fm.file_name()).hex(),
                           out.fm.serialize());
  current_.clear();
}

std::optional<ChunkRef> AnchoredEngine::find_duplicate(const Digest& hash,
                                                       AccessKind kind) {
  if (const auto it = current_.find(hash); it != current_.end()) {
    return it->second;
  }
  const auto loc = find_anchor(hash, kind);
  if (!loc) return std::nullopt;
  const ManifestEntry& e = loc->manifest->entries()[loc->entry_index];
  return ChunkRef{loc->manifest->chunk_name(), e.offset, e.size};
}

void AnchoredEngine::store_indexed(FileOut& out, ByteSpan bytes,
                                   const Digest& hash,
                                   std::uint32_t chunk_count) {
  const ChunkRef ref = store_chunk(out.writer, out.dig, bytes);
  out.manifest.add({hash, ref.offset, ref.size, chunk_count, false});
  write_hook(hash, out.dig);
  current_.emplace(hash, ref);
  out.fm.add_range(ref.chunk, ref.offset, ref.size, /*coalesce=*/false);
}

std::optional<ManifestCache::Located> AnchoredEngine::find_anchor(
    const Digest& hash, AccessKind kind) {
  if (auto loc = cache_.lookup_hash(hash)) return loc;
  if (sampled_mode()) {
    if (!load_champions(hash)) return std::nullopt;
  } else {
    if (hook_bloom_ && !hook_bloom_->maybe_contains(hash.prefix64())) {
      return std::nullopt;
    }
    const auto hook =
        degrade_on_corruption([&] { return store_.get_hook(hash, kind); });
    if (!hook || hook->size() != Digest::kSize) return std::nullopt;
    Digest manifest_name;
    std::copy(hook->begin(), hook->end(), manifest_name.bytes.begin());
    if (degrade_on_corruption([&] { return cache_.load(manifest_name); }) ==
        nullptr) {
      return std::nullopt;
    }
  }
  return cache_.lookup_hash(hash);
}

bool AnchoredEngine::load_champions(const Digest& hash) {
  bool loaded = false;
  for (const Digest& name : fp_index_->champions_for(hash)) {
    if (cache_.cached(name) != nullptr) continue;
    Manifest* m = degrade_on_corruption([&] { return cache_.load(name); });
    if (m == nullptr) continue;
    fp_index_->note_champion_load();
    loaded = true;
  }
  return loaded;
}

void AnchoredEngine::write_hook(const Digest& hash, const Digest& manifest) {
  store_.put_hook(hash, manifest.span());
  if (hook_bloom_) hook_bloom_->insert(hash.prefix64());
}

}  // namespace mhd
