#include "mhd/dedup/extreme_binning_engine.h"

namespace mhd {

ExtremeBinningEngine::ExtremeBinningEngine(ObjectStore& store,
                                           const EngineConfig& config)
    : DedupEngine(store, config) {}

ByteVec ExtremeBinningEngine::serialize_bin(const Bin& bin) const {
  ByteVec out;
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(bin.size()));
  for (const auto& [hash, entry] : bin) {
    append(out, hash.span());
    append(out, entry.chunk.span());
    append_le<std::uint64_t>(out, entry.offset);
    append_le<std::uint32_t>(out, entry.size);
  }
  return out;
}

std::optional<ExtremeBinningEngine::Bin> ExtremeBinningEngine::deserialize_bin(
    ByteSpan data) const {
  if (data.size() < 4) return std::nullopt;
  const std::uint32_t count = load_le<std::uint32_t>(data.data());
  constexpr std::size_t kEntry = 20 + 20 + 8 + 4;
  if (data.size() < 4 + static_cast<std::size_t>(count) * kEntry) {
    return std::nullopt;
  }
  Bin bin;
  std::size_t pos = 4;
  for (std::uint32_t i = 0; i < count; ++i) {
    Digest hash;
    ChunkRef entry;
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(pos),
              data.begin() + static_cast<std::ptrdiff_t>(pos + 20),
              hash.bytes.begin());
    pos += 20;
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(pos),
              data.begin() + static_cast<std::ptrdiff_t>(pos + 20),
              entry.chunk.bytes.begin());
    pos += 20;
    entry.offset = load_le<std::uint64_t>(data.data() + pos);
    pos += 8;
    entry.size = load_le<std::uint32_t>(data.data() + pos);
    pos += 4;
    bin.emplace(hash, entry);
  }
  return bin;
}

void ExtremeBinningEngine::process_file(const std::string& file_name,
                                        ByteSource& data) {
  const Digest dig = unique_store_digest(file_digest(file_name));
  FileManifest fm(file_name);

  // Chunk the whole file first: Extreme Binning needs the representative
  // (minimum) chunk hash before it can pick a bin.
  std::vector<std::pair<Digest, ByteVec>> chunks;
  auto stream = open_ingest(data, cfg_.ecs);
  ByteVec bytes;
  Digest hash;
  std::optional<Digest> representative;
  while (stream.next(bytes, hash)) {
    counters_.input_bytes += bytes.size();
    ++counters_.input_chunks;
    if (!representative || hash < *representative) representative = hash;
    chunks.emplace_back(hash, std::move(bytes));
  }
  if (chunks.empty()) {
    store_.put_file_manifest(file_digest(file_name).hex(), fm.serialize());
    return;
  }

  // One disk access per file: load the representative's bin if known.
  Bin bin;
  Digest bin_name = *representative;
  const auto idx = primary_index_.find(*representative);
  if (idx != primary_index_.end()) {
    bin_name = idx->second;
    if (const auto raw = degrade_on_corruption(
            [&] { return store_.get_manifest(bin_name.hex()); })) {
      if (auto parsed = deserialize_bin(*raw)) {
        bin = std::move(*parsed);
        ++bin_loads_;
      }
    }
  }

  ChunkWriter writer = store_.open_chunk(dig.hex());
  for (auto& [hash, chunk_bytes] : chunks) {
    if (const auto hit = bin.find(hash);
        hit != bin.end() && take_duplicate(hit->second, fm)) {
      continue;
    }
    note_unique(chunk_bytes.size());
    const ChunkRef ref = store_chunk(writer, dig, chunk_bytes);
    bin.emplace(hash, ref);
    fm.add_range(ref.chunk, ref.offset, ref.size, false);
  }
  writer.close();
  // The bin absorbs the file's new chunks.
  if (writer.bytes_written() > 0) {
    ++counters_.files_with_data;
    store_.put_manifest(bin_name.hex(), serialize_bin(bin));
  }
  primary_index_[*representative] = bin_name;
  store_.put_file_manifest(file_digest(file_name).hex(), fm.serialize());
}

}  // namespace mhd
