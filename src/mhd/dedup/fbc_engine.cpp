#include "mhd/dedup/fbc_engine.h"

#include "mhd/chunk/chunk_stream.h"
#include "mhd/chunk/rabin_chunker.h"

namespace mhd {

FbcEngine::FbcEngine(ObjectStore& store, const EngineConfig& config)
    : DedupEngine(store, config),
      cache_(store, config.manifest_cache_capacity, /*hook_flags=*/false,
             config.manifest_cache_bytes, &fp_index()) {
  open_anchor_path(cache_);
  load_frequency_sketch();
}

std::optional<FbcEngine::DupRef> FbcEngine::find_duplicate(
    const Digest& hash, const FileCtx& ctx, AccessKind query_kind) {
  if (const auto it = ctx.current.find(hash); it != ctx.current.end()) {
    return it->second;
  }
  const auto loc = find_anchor(cache_, hash, query_kind);
  if (!loc) return std::nullopt;
  const ManifestEntry& e = loc->manifest->entries()[loc->entry_index];
  return DupRef{loc->manifest->chunk_name(), e.offset, e.size};
}

void FbcEngine::store_region(FileCtx& ctx, ByteSpan bytes, const Digest& hash,
                             std::uint32_t chunk_count) {
  if (!ctx.writer) ctx.writer.emplace(store_.open_chunk(ctx.dig.hex()));
  ctx.writer->write(bytes);
  ctx.manifest.add({hash, ctx.chunk_off, static_cast<std::uint32_t>(bytes.size()),
                    chunk_count, false});
  write_hook(hash, ctx.dig);
  ctx.current.emplace(hash, DupRef{ctx.dig, ctx.chunk_off,
                                   static_cast<std::uint32_t>(bytes.size())});
  ctx.fm.add_range(ctx.dig, ctx.chunk_off, bytes.size(), /*coalesce=*/false);
  ctx.chunk_off += bytes.size();
  ++counters_.stored_chunks;
}

bool FbcEngine::looks_frequent(
    ByteSpan big_bytes, std::vector<std::pair<Digest, ByteVec>>& smalls) {
  const auto chunker =
      make_chunker(cfg_.chunker, cfg_.chunker_config(cfg_.ecs));
  MemorySource src(big_bytes);
  ChunkStream stream(src, *chunker);
  bool frequent = false;
  ByteVec bytes;
  while (stream.next(bytes)) {
    const Digest hash = Sha1::hash(bytes);
    const std::uint64_t fp = hash.prefix64();
    if (fp % kSampleMod == 0) {
      auto& count = frequency_[fp];
      if (count + 1 >= kFrequencyThreshold) frequent = true;
      ++count;
    }
    smalls.emplace_back(hash, std::move(bytes));
  }
  return frequent;
}

void FbcEngine::process_file(const std::string& file_name, ByteSource& data) {
  FileCtx ctx;
  ctx.dig = unique_store_digest(file_digest(file_name));
  ctx.manifest = Manifest(ctx.dig);
  ctx.fm = FileManifest(file_name);

  const std::uint64_t big_size =
      static_cast<std::uint64_t>(cfg_.ecs) * cfg_.sd;
  auto stream = open_ingest(data, big_size);

  ByteVec big_bytes;
  Digest big_hash;
  while (stream.next(big_bytes, big_hash)) {
    counters_.input_bytes += big_bytes.size();
    ++counters_.input_chunks;

    if (const auto dup =
            find_duplicate(big_hash, ctx, AccessKind::kBigChunkQuery);
        dup && admit_duplicate(dup->chunk_name, dup->offset, dup->size)) {
      note_duplicate(dup->size);
      ctx.fm.add_range(dup->chunk_name, dup->offset, dup->size, false);
      continue;
    }

    // Frequency-driven selective re-chunking: small-chunk the big chunk
    // (this also feeds the sketch) and only deduplicate small when the
    // sketch indicates previously seen content.
    std::vector<std::pair<Digest, ByteVec>> smalls;
    const bool frequent = looks_frequent(big_bytes, smalls);
    if (!frequent) {
      note_unique(big_bytes.size());
      store_region(ctx, big_bytes, big_hash,
                   std::max<std::uint32_t>(1, cfg_.sd));
      continue;
    }
    counters_.input_chunks += smalls.size();
    for (auto& [hash, bytes] : smalls) {
      if (const auto dup =
              find_duplicate(hash, ctx, AccessKind::kSmallChunkQuery);
          dup && admit_duplicate(dup->chunk_name, dup->offset, dup->size)) {
        note_duplicate(dup->size);
        ctx.fm.add_range(dup->chunk_name, dup->offset, dup->size, false);
        continue;
      }
      note_unique(bytes.size());
      store_region(ctx, bytes, hash, 1);
    }
  }

  if (ctx.writer) {
    ctx.writer->close();
    store_.put_manifest(ctx.dig.hex(), ctx.manifest.serialize(false));
    cache_.insert(ctx.dig, std::move(ctx.manifest), /*dirty=*/false);
    ++counters_.files_with_data;
  }
  store_.put_file_manifest(file_digest(file_name).hex(), ctx.fm.serialize());
}

void FbcEngine::finish() {
  cache_.flush();
  save_frequency_sketch();
  persist_index_state(cache_);
}

// The frequency sketch is FBC's second piece of cross-restart state: the
// re-chunking decision depends on how often sampled fingerprints were seen
// in *prior* data, so a warm-restarted run must resume with the sketch the
// uninterrupted run would have. Persisted as an aux blob of the
// fingerprint index — count-prefixed u64 key / u32 count pairs; MemIndex
// keeps no aux blobs, so mem runs hold it in RAM only.
void FbcEngine::save_frequency_sketch() {
  ByteVec payload;
  payload.reserve(8 + frequency_.size() * 12);
  append_le(payload, static_cast<std::uint64_t>(frequency_.size()));
  for (const auto& [key, seen] : frequency_) {
    append_le(payload, key);
    append_le(payload, seen);
  }
  fp_index().save_aux(kSketchAuxName, payload);
}

void FbcEngine::load_frequency_sketch() {
  const std::optional<ByteVec> payload = fp_index().load_aux(kSketchAuxName);
  if (!payload || payload->size() < 8) return;
  const auto count = load_le<std::uint64_t>(payload->data());
  if (payload->size() != 8 + count * 12) return;
  frequency_.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const Byte* p = payload->data() + 8 + i * 12;
    frequency_[load_le<std::uint64_t>(p)] = load_le<std::uint32_t>(p + 8);
  }
}

}  // namespace mhd
