#include "mhd/dedup/fbc_engine.h"

namespace mhd {

FbcEngine::FbcEngine(ObjectStore& store, const EngineConfig& config)
    : AnchoredEngine(store, config, /*hook_flags=*/false) {
  load_frequency_sketch();
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
  FileOut out = open_file(file_name);
  const std::uint64_t big_size =
      static_cast<std::uint64_t>(cfg_.ecs) * cfg_.sd;
  auto stream = open_ingest(data, big_size);

  ByteVec big_bytes;
  Digest big_hash;
  while (stream.next(big_bytes, big_hash)) {
    counters_.input_bytes += big_bytes.size();
    ++counters_.input_chunks;

    if (const auto dup = find_duplicate(big_hash, AccessKind::kBigChunkQuery);
        dup && take_duplicate(*dup, out.fm)) {
      continue;
    }

    // Frequency-driven selective re-chunking: small-chunk the big chunk
    // (this also feeds the sketch) and only deduplicate small when the
    // sketch indicates previously seen content.
    std::vector<std::pair<Digest, ByteVec>> smalls;
    const bool frequent = looks_frequent(big_bytes, smalls);
    if (!frequent) {
      note_unique(big_bytes.size());
      store_indexed(out, big_bytes, big_hash,
                    std::max<std::uint32_t>(1, cfg_.sd));
      continue;
    }
    counters_.input_chunks += smalls.size();
    for (auto& [hash, bytes] : smalls) {
      if (const auto dup = find_duplicate(hash, AccessKind::kSmallChunkQuery);
          dup && take_duplicate(*dup, out.fm)) {
        continue;
      }
      note_unique(bytes.size());
      store_indexed(out, bytes, hash, 1);
    }
  }
  close_file(out);
}

// The frequency sketch is FBC's second piece of cross-restart state: the
// re-chunking decision depends on how often sampled fingerprints were seen
// in *prior* data, so a warm-restarted run must resume with the sketch the
// uninterrupted run would have. Persisted as an aux blob of the
// fingerprint index — count-prefixed u64 key / u32 count pairs; MemIndex
// keeps no aux blobs, so mem runs hold it in RAM only.
void FbcEngine::save_index_aux() {
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
