#include "mhd/dedup/subchunk_engine.h"

#include "mhd/chunk/chunk_stream.h"
#include "mhd/chunk/rabin_chunker.h"

namespace mhd {

namespace {
void append_digest(ByteVec& out, const Digest& d) { append(out, d.span()); }

Digest read_digest(ByteSpan data, std::size_t& pos) {
  Digest d;
  std::copy(data.begin() + static_cast<std::ptrdiff_t>(pos),
            data.begin() + static_cast<std::ptrdiff_t>(pos + Digest::kSize),
            d.bytes.begin());
  pos += Digest::kSize;
  return d;
}
}  // namespace

ByteVec SubChunkEngine::SubManifest::serialize() const {
  ByteVec out;
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(groups.size()));
  for (const auto& g : groups) {
    // Container header: big-chunk hash (20) + container address (20) +
    // small-chunk count (4) + recipe count (4). (The paper accounts 28
    // bytes; our header also carries the container name and the recipe —
    // see the class comment.)
    append_digest(out, g.big_hash);
    append_digest(out, g.container);
    append_le<std::uint32_t>(out, static_cast<std::uint32_t>(g.smalls.size()));
    append_le<std::uint32_t>(out, static_cast<std::uint32_t>(g.recipe.size()));
    for (const auto& e : g.smalls) {
      append_digest(out, e.hash);
      append_le<std::uint64_t>(out, e.offset);
      append_le<std::uint32_t>(out, e.size);
      append_le<std::uint32_t>(out, e.chunk_count);
    }
    for (const auto& r : g.recipe) {
      append_digest(out, r.chunk_name);
      append_le<std::uint64_t>(out, r.offset);
      append_le<std::uint32_t>(out, r.length);
    }
  }
  return out;
}

std::optional<SubChunkEngine::SubManifest>
SubChunkEngine::SubManifest::deserialize(ByteSpan data) {
  if (data.size() < 4) return std::nullopt;
  SubManifest m;
  std::size_t pos = 0;
  const std::uint32_t group_count = load_le<std::uint32_t>(data.data());
  pos += 4;
  for (std::uint32_t gi = 0; gi < group_count; ++gi) {
    if (data.size() < pos + 48) return std::nullopt;
    BigGroup g;
    g.big_hash = read_digest(data, pos);
    g.container = read_digest(data, pos);
    const std::uint32_t smalls = load_le<std::uint32_t>(data.data() + pos);
    pos += 4;
    const std::uint32_t recipes = load_le<std::uint32_t>(data.data() + pos);
    pos += 4;
    if (data.size() < pos + std::size_t{smalls} * 36 + std::size_t{recipes} * 32) {
      return std::nullopt;
    }
    for (std::uint32_t i = 0; i < smalls; ++i) {
      ManifestEntry e;
      e.hash = read_digest(data, pos);
      e.offset = load_le<std::uint64_t>(data.data() + pos);
      pos += 8;
      e.size = load_le<std::uint32_t>(data.data() + pos);
      pos += 4;
      e.chunk_count = load_le<std::uint32_t>(data.data() + pos);
      pos += 4;
      g.smalls.push_back(e);
    }
    for (std::uint32_t i = 0; i < recipes; ++i) {
      FileManifestEntry r;
      r.chunk_name = read_digest(data, pos);
      r.offset = load_le<std::uint64_t>(data.data() + pos);
      pos += 8;
      r.length = load_le<std::uint32_t>(data.data() + pos);
      pos += 4;
      g.recipe.push_back(r);
    }
    m.groups.push_back(std::move(g));
  }
  return m;
}

std::uint64_t SubChunkEngine::SubManifest::serialized_size() const {
  std::uint64_t bytes = 4;
  for (const auto& g : groups) {
    bytes += 48 + g.smalls.size() * 36 + g.recipe.size() * 32;
  }
  return bytes;
}

SubChunkEngine::SubChunkEngine(ObjectStore& store, const EngineConfig& config)
    : DedupEngine(store, config),
      cache_(
          config.manifest_cache_capacity,
          [this](const Digest& name, SubManifest& m) {
            (void)name;
            unindex_manifest(m);
          },
          config.manifest_cache_bytes,
          [](const SubManifest& m) { return m.weight; }),
      bloom_(config.bloom_bytes) {
  if (cfg_.use_bloom) seed_bloom_from_hooks(bloom_, store.backend());
}

void SubChunkEngine::index_manifest(const Digest& name, const SubManifest& m) {
  for (std::size_t gi = 0; gi < m.groups.size(); ++gi) {
    const BigGroup& g = m.groups[gi];
    big_index_.insert_or_assign(g.big_hash, std::make_pair(name, gi));
    for (const auto& e : g.smalls) {
      small_index_.insert_or_assign(e.hash, SmallRef{g.container, e.offset,
                                                     e.size});
    }
  }
}

void SubChunkEngine::unindex_manifest(const SubManifest& m) {
  for (const auto& g : m.groups) {
    big_index_.erase(g.big_hash);
    for (const auto& e : g.smalls) small_index_.erase(e.hash);
  }
}

std::optional<SubChunkEngine::SmallRef> SubChunkEngine::find_small(
    const Digest& hash) {
  const auto it = small_index_.find(hash);
  if (it == small_index_.end()) return std::nullopt;
  return it->second;
}

std::optional<const SubChunkEngine::BigGroup*> SubChunkEngine::find_big(
    const Digest& hash) {
  const auto it = big_index_.find(hash);
  if (it == big_index_.end()) return std::nullopt;
  SubManifest* m = cache_.get(it->second.first);
  if (m == nullptr || it->second.second >= m->groups.size()) {
    return std::nullopt;
  }
  return &m->groups[it->second.second];
}

bool SubChunkEngine::load_manifest_for(const Digest& hook_hash,
                                       AccessKind query_kind) {
  if (cfg_.use_bloom && !bloom_.maybe_contains(hook_hash.prefix64())) {
    return false;
  }
  const auto hook = degrade_on_corruption(
      [&] { return store_.get_hook(hook_hash, query_kind); });
  if (!hook || hook->size() != Digest::kSize) return false;
  Digest manifest_name;
  std::copy(hook->begin(), hook->end(), manifest_name.bytes.begin());
  if (cache_.contains(manifest_name)) return true;
  const auto raw = degrade_on_corruption(
      [&] { return store_.get_manifest(manifest_name.hex()); });
  if (!raw) return false;
  auto m = SubManifest::deserialize(*raw);
  if (!m) return false;
  ++loads_;
  m->weight = m->serialized_size();
  index_manifest(manifest_name, *m);
  cache_.put(manifest_name, std::move(*m));
  return true;
}

void SubChunkEngine::process_file(const std::string& file_name,
                                  ByteSource& data) {
  const Digest dig = unique_store_digest(file_digest(file_name));
  SubManifest manifest;
  FileManifest fm(file_name);
  bool first_big = true;
  bool stored_anything = false;

  const std::uint64_t big_size =
      static_cast<std::uint64_t>(cfg_.ecs) * cfg_.sd;
  auto stream = open_ingest(data, big_size);

  ByteVec big_bytes;
  Digest big_hash;
  while (stream.next(big_bytes, big_hash)) {
    counters_.input_bytes += big_bytes.size();
    ++counters_.input_chunks;

    // Big-chunk duplication query (cache first, then the on-disk hook — the
    // query MHD's bi-directional extension avoids).
    auto big = find_big(big_hash);
    if (!big && load_manifest_for(big_hash, AccessKind::kBigChunkQuery)) {
      big = find_big(big_hash);
    }
    if (big && !(*big)->recipe.empty() &&
        admit_duplicate((*big)->recipe.front().chunk_name,
                        (*big)->recipe.front().offset, big_bytes.size())) {
      note_duplicate(big_bytes.size());
      for (const auto& r : (*big)->recipe) {
        fm.add_range(r.chunk_name, r.offset, r.length, /*coalesce=*/false);
      }
      continue;
    }

    // Non-duplicate big chunk: re-chunk at ECS, dedup small, coalesce the
    // surviving smalls into one container DiskChunk (name salted if the
    // same big-chunk hash produced a container before).
    BigGroup group;
    group.big_hash = big_hash;
    group.container = unique_store_digest(big_hash);
    std::optional<ChunkWriter> writer;
    std::uint64_t container_off = 0;
    const Digest container = group.container;

    const auto small_chunker =
        make_chunker(cfg_.chunker, cfg_.chunker_config(cfg_.ecs));
    MemorySource src(big_bytes);
    ChunkStream small_stream(src, *small_chunker);
    ByteVec bytes;
    while (small_stream.next(bytes)) {
      ++counters_.input_chunks;
      const Digest hash = Sha1::hash(bytes);
      if (const auto dup = find_small(hash);
          dup && admit_duplicate(dup->container, dup->offset, dup->size)) {
        note_duplicate(dup->size);
        fm.add_range(dup->container, dup->offset, dup->size, false);
        group.recipe.push_back({dup->container, dup->offset, dup->size});
        continue;
      }
      note_unique(bytes.size());
      if (!writer) writer.emplace(store_.open_chunk(container.hex()));
      writer->write(bytes);
      group.smalls.push_back({hash, container_off,
                              static_cast<std::uint32_t>(bytes.size()), 1,
                              false});
      small_index_.insert_or_assign(
          hash, SmallRef{container, container_off,
                         static_cast<std::uint32_t>(bytes.size())});
      fm.add_range(container, container_off, bytes.size(), false);
      group.recipe.push_back({container, container_off,
                              static_cast<std::uint32_t>(bytes.size())});
      container_off += bytes.size();
      ++counters_.stored_chunks;
    }
    if (writer) {
      writer->close();
      stored_anything = true;
    }
    big_index_.insert_or_assign(big_hash,
                                std::make_pair(dig, manifest.groups.size()));
    manifest.groups.push_back(std::move(group));

    // The file's hook is its first big chunk (the "anchor").
    if (first_big) {
      store_.put_hook(big_hash, dig.span());
      if (cfg_.use_bloom) bloom_.insert(big_hash.prefix64());
      first_big = false;
    }
  }

  if (!manifest.groups.empty()) {
    store_.put_manifest(dig.hex(), manifest.serialize());
    manifest.weight = manifest.serialized_size();
    cache_.put(dig, std::move(manifest));
    if (stored_anything) ++counters_.files_with_data;
  }
  store_.put_file_manifest(file_digest(file_name).hex(), fm.serialize());
}

void SubChunkEngine::finish() {}

}  // namespace mhd
