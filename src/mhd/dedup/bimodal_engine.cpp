#include "mhd/dedup/bimodal_engine.h"

namespace mhd {

void BimodalEngine::emit_big(FileOut& out, BigChunk& chunk, bool transition) {
  if (chunk.dup && take_duplicate(*chunk.dup, out.fm)) return;
  if (!transition) {
    // Store the big chunk whole: one entry, one hook, one hash.
    note_unique(chunk.bytes.size());
    store_indexed(out, chunk.bytes, chunk.hash,
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
    if (const auto dup = find_duplicate(hash, AccessKind::kSmallChunkQuery);
        dup && take_duplicate(*dup, out.fm)) {
      continue;
    }
    note_unique(bytes.size());
    store_indexed(out, bytes, hash, 1);
  }
}

void BimodalEngine::process_file(const std::string& file_name,
                                 ByteSource& data) {
  FileOut out = open_file(file_name);
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
    incoming.dup = find_duplicate(incoming.hash, AccessKind::kBigChunkQuery);

    if (held) {
      const bool transition = prev_was_dup || incoming.dup.has_value();
      const bool held_was_dup = held->dup.has_value();
      emit_big(out, *held, transition);
      prev_was_dup = held_was_dup;
    }
    held = std::move(incoming);
  }
  if (held) {
    emit_big(out, *held, prev_was_dup);  // stream end: no right neighbor
  }
  close_file(out);
}

}  // namespace mhd
