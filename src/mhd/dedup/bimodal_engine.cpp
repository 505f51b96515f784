#include "mhd/dedup/bimodal_engine.h"

#include "mhd/chunk/chunk_stream.h"
#include "mhd/chunk/rabin_chunker.h"

namespace mhd {

BimodalEngine::BimodalEngine(ObjectStore& store, const EngineConfig& config)
    : DedupEngine(store, config),
      cache_(store, config.manifest_cache_capacity, /*hook_flags=*/false,
             config.manifest_cache_bytes, &fp_index()) {
  open_anchor_path(cache_);
}

std::optional<BimodalEngine::DupRef> BimodalEngine::find_duplicate(
    const Digest& hash, const FileCtx& ctx, AccessKind query_kind) {
  if (const auto it = ctx.current.find(hash); it != ctx.current.end()) {
    return it->second;
  }
  const auto loc = find_anchor(cache_, hash, query_kind);
  if (!loc) return std::nullopt;
  const ManifestEntry& e = loc->manifest->entries()[loc->entry_index];
  return DupRef{loc->manifest->chunk_name(), e.offset, e.size};
}

void BimodalEngine::store_small(FileCtx& ctx, ByteSpan bytes,
                                const Digest& hash,
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

void BimodalEngine::emit_big(FileCtx& ctx, BigChunk& chunk, bool transition) {
  if (chunk.dup && admit_duplicate(chunk.dup->chunk_name, chunk.dup->offset,
                                   chunk.dup->size)) {
    note_duplicate(chunk.dup->size);
    ctx.fm.add_range(chunk.dup->chunk_name, chunk.dup->offset, chunk.dup->size,
                     /*coalesce=*/false);
    return;
  }
  if (!transition) {
    // Store the big chunk whole: one entry, one hook, one hash.
    note_unique(chunk.bytes.size());
    store_small(ctx, chunk.bytes, chunk.hash,
                std::max<std::uint32_t>(1, cfg_.sd));
    return;
  }
  // Transition point: re-chunk at the small expected size and deduplicate
  // each small chunk individually.
  const auto small_chunker =
      make_chunker(cfg_.chunker, cfg_.chunker_config(cfg_.ecs));
  MemorySource src(chunk.bytes);
  ChunkStream stream(src, *small_chunker);
  ByteVec bytes;
  while (stream.next(bytes)) {
    ++counters_.input_chunks;
    const Digest hash = Sha1::hash(bytes);
    if (const auto dup = find_duplicate(hash, ctx, AccessKind::kSmallChunkQuery);
        dup && admit_duplicate(dup->chunk_name, dup->offset, dup->size)) {
      note_duplicate(dup->size);
      ctx.fm.add_range(dup->chunk_name, dup->offset, dup->size, false);
      continue;
    }
    note_unique(bytes.size());
    store_small(ctx, bytes, hash, 1);
  }
}

void BimodalEngine::process_file(const std::string& file_name,
                                 ByteSource& data) {
  FileCtx ctx;
  ctx.dig = unique_store_digest(file_digest(file_name));
  ctx.manifest = Manifest(ctx.dig);
  ctx.fm = FileManifest(file_name);

  const std::uint64_t big_size =
      static_cast<std::uint64_t>(cfg_.ecs) * cfg_.sd;
  auto stream = open_ingest(data, big_size);

  // One-big-chunk delay line so a non-duplicate chunk knows whether its
  // successor is a duplicate (transition-point detection needs both sides).
  std::optional<BigChunk> held;
  bool prev_was_dup = false;

  ByteVec bytes;
  Digest hash;
  while (stream.next(bytes, hash)) {
    counters_.input_bytes += bytes.size();
    ++counters_.input_chunks;
    BigChunk incoming;
    incoming.hash = hash;
    incoming.bytes = std::move(bytes);
    incoming.dup =
        find_duplicate(incoming.hash, ctx, AccessKind::kBigChunkQuery);

    if (held) {
      const bool transition = prev_was_dup || incoming.dup.has_value();
      const bool held_was_dup = held->dup.has_value();
      emit_big(ctx, *held, transition);
      prev_was_dup = held_was_dup;
    }
    held = std::move(incoming);
  }
  if (held) {
    emit_big(ctx, *held, prev_was_dup);  // stream end: no right neighbor
  }

  if (ctx.writer) {
    ctx.writer->close();
    store_.put_manifest(ctx.dig.hex(), ctx.manifest.serialize(false));
    cache_.insert(ctx.dig, std::move(ctx.manifest), /*dirty=*/false);
    ++counters_.files_with_data;
  }
  store_.put_file_manifest(file_digest(file_name).hex(), ctx.fm.serialize());
}

void BimodalEngine::finish() {
  cache_.flush();
  persist_index_state(cache_);
}

}  // namespace mhd
