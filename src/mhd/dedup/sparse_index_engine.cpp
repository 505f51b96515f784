#include "mhd/dedup/sparse_index_engine.h"

#include <algorithm>

namespace mhd {

ByteVec SparseIndexEngine::SegManifest::serialize() const {
  ByteVec out;
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(containers.size()));
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(entries.size()));
  for (const auto& c : containers) append(out, c.span());
  for (const auto& e : entries) {
    append(out, e.hash.span());
    append_le<std::uint32_t>(out, e.container_index);
    append_le<std::uint64_t>(out, e.offset);
    append_le<std::uint32_t>(out, e.size);
  }
  return out;
}

std::optional<SparseIndexEngine::SegManifest>
SparseIndexEngine::SegManifest::deserialize(ByteSpan data) {
  if (data.size() < 8) return std::nullopt;
  SegManifest m;
  const std::uint32_t ncont = load_le<std::uint32_t>(data.data());
  const std::uint32_t nent = load_le<std::uint32_t>(data.data() + 4);
  std::size_t pos = 8;
  if (data.size() < pos + std::size_t{ncont} * 20 + std::size_t{nent} * 36) {
    return std::nullopt;
  }
  for (std::uint32_t i = 0; i < ncont; ++i) {
    Digest d;
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(pos),
              data.begin() + static_cast<std::ptrdiff_t>(pos + 20),
              d.bytes.begin());
    pos += 20;
    m.containers.push_back(d);
  }
  for (std::uint32_t i = 0; i < nent; ++i) {
    Entry e;
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(pos),
              data.begin() + static_cast<std::ptrdiff_t>(pos + 20),
              e.hash.bytes.begin());
    pos += 20;
    e.container_index = load_le<std::uint32_t>(data.data() + pos);
    pos += 4;
    e.offset = load_le<std::uint64_t>(data.data() + pos);
    pos += 8;
    e.size = load_le<std::uint32_t>(data.data() + pos);
    pos += 4;
    if (e.container_index >= m.containers.size()) return std::nullopt;
    m.entries.push_back(e);
  }
  return m;
}

SparseIndexEngine::SparseIndexEngine(ObjectStore& store,
                                     const EngineConfig& config)
    : DedupEngine(store, config),
      cache_(config.manifest_cache_capacity, nullptr,
             config.manifest_cache_bytes,
             [](const SegManifest& m) { return m.weight; }) {}

std::uint64_t SparseIndexEngine::index_ram_bytes() const {
  // Hash-map node: key + vector header + bucket overhead (~48 B) plus the
  // manifest ids held per hook.
  std::uint64_t bytes = 0;
  for (const auto& [key, manifests] : sparse_index_) {
    (void)key;
    bytes += 48 + manifests.size() * Digest::kSize;
  }
  return bytes;
}

void SparseIndexEngine::dedup_segment(std::vector<SegChunk>& segment,
                                      const Digest& file_dig,
                                      std::uint64_t segment_seq,
                                      FileManifest& fm,
                                      bool& stored_anything) {
  if (segment.empty()) return;

  // Segment identity: digest of (file digest, sequence number).
  ByteVec id_bytes = to_vec(file_dig.span());
  append_le<std::uint64_t>(id_bytes, segment_seq);
  const Digest seg_name = unique_store_digest(Sha1::hash(id_bytes));

  // 1. Champion selection: sampled hooks vote for known manifests.
  std::vector<std::pair<Digest, int>> votes;  // manifest -> hook hits
  for (const auto& c : segment) {
    if (!is_hook(c.hash)) continue;
    const auto it = sparse_index_.find(c.hash.prefix64());
    if (it == sparse_index_.end()) continue;
    for (const Digest& mname : it->second) {
      auto v = std::find_if(votes.begin(), votes.end(),
                            [&](const auto& p) { return p.first == mname; });
      if (v == votes.end()) {
        votes.emplace_back(mname, 1);
      } else {
        ++v->second;
      }
    }
  }
  std::stable_sort(votes.begin(), votes.end(),
                   [](const auto& a, const auto& b) { return a.second > b.second; });
  if (votes.size() > cfg_.max_champions) votes.resize(cfg_.max_champions);

  // 2. Load champions and build the segment-local duplicate map.
  std::unordered_map<Digest, ChunkRef, DigestHasher> known;
  for (const auto& [mname, hits] : votes) {
    (void)hits;
    SegManifest* m = cache_.get(mname);
    if (m == nullptr) {
      const auto raw = degrade_on_corruption(
          [&] { return store_.get_manifest(mname.hex()); });
      if (!raw) continue;
      auto parsed = SegManifest::deserialize(*raw);
      if (!parsed) continue;
      ++loads_;
      parsed->weight = parsed->serialized_size();
      m = &cache_.put(mname, std::move(*parsed));
    }
    for (const auto& e : m->entries) {
      known.emplace(e.hash,
                    ChunkRef{m->containers[e.container_index], e.offset, e.size});
    }
  }

  // 3. Deduplicate the segment; survivors go to this segment's container.
  SegManifest manifest;
  ChunkWriter writer = store_.open_chunk(seg_name.hex());
  auto container_index = [&](const Digest& c) -> std::uint32_t {
    const auto it = std::find(manifest.containers.begin(),
                              manifest.containers.end(), c);
    if (it != manifest.containers.end()) {
      return static_cast<std::uint32_t>(it - manifest.containers.begin());
    }
    manifest.containers.push_back(c);
    return static_cast<std::uint32_t>(manifest.containers.size() - 1);
  };

  for (auto& c : segment) {
    if (const auto it = known.find(c.hash);
        it != known.end() && take_duplicate(it->second, fm)) {
      manifest.entries.push_back({c.hash, container_index(it->second.chunk),
                                  it->second.offset, it->second.size});
      continue;
    }
    note_unique(c.bytes.size());
    const ChunkRef ref = store_chunk(writer, seg_name, c.bytes);
    known.emplace(c.hash, ref);  // intra-segment dedup
    manifest.entries.push_back(
        {c.hash, container_index(seg_name), ref.offset, ref.size});
    fm.add_range(ref.chunk, ref.offset, ref.size, false);
  }
  writer.close();
  stored_anything |= writer.bytes_written() > 0;

  // 4. Persist the segment manifest and update the sparse index + hooks.
  store_.put_manifest(seg_name.hex(), manifest.serialize());
  for (const auto& c : segment) {
    if (!is_hook(c.hash)) continue;
    auto& list = sparse_index_[c.hash.prefix64()];
    if (std::find(list.begin(), list.end(), seg_name) == list.end()) {
      if (list.size() >= cfg_.max_manifests_per_hook) {
        list.erase(list.begin());  // drop the oldest mapping
      }
      list.push_back(seg_name);
      // Hooks are also persisted (hash-named files) so the index survives
      // restart; this is what Fig. 7(a)'s high inode count reflects.
      store_.put_hook(c.hash, seg_name.span());
    }
  }
  manifest.weight = manifest.serialized_size();
  cache_.put(seg_name, std::move(manifest));
  segment.clear();
}

void SparseIndexEngine::process_file(const std::string& file_name,
                                     ByteSource& data) {
  const Digest dig = file_digest(file_name);
  FileManifest fm(file_name);
  bool stored_anything = false;

  // Paper Section V: a segment is ECS * SD * 5 bytes.
  const std::uint64_t segment_bytes =
      static_cast<std::uint64_t>(cfg_.ecs) * cfg_.sd * 5;
  auto stream = open_ingest(data, cfg_.ecs);

  std::vector<SegChunk> segment;
  std::uint64_t segment_fill = 0;
  std::uint64_t segment_seq = 0;

  ByteVec bytes;
  SegChunk c;
  while (stream.next(bytes, c.hash)) {
    counters_.input_bytes += bytes.size();
    ++counters_.input_chunks;
    segment_fill += bytes.size();
    c.bytes = std::move(bytes);
    segment.push_back(std::move(c));
    if (segment_fill >= segment_bytes) {
      dedup_segment(segment, dig, segment_seq++, fm, stored_anything);
      segment_fill = 0;
      end_dup_run();  // slices do not span segment boundaries here
    }
  }
  dedup_segment(segment, dig, segment_seq++, fm, stored_anything);

  if (stored_anything) ++counters_.files_with_data;
  store_.put_file_manifest(dig.hex(), fm.serialize());
}

}  // namespace mhd
