#include "mhd/core/manifest_cache.h"

#include "mhd/index/mem_index.h"
#include "mhd/store/container_store.h"
#include "mhd/store/store_errors.h"

namespace mhd {

ManifestCache::ManifestCache(ObjectStore& store, std::size_t capacity,
                             bool hook_flags, std::uint64_t max_bytes,
                             FingerprintIndex* index)
    : store_(store),
      containers_(dynamic_cast<const ContainerBackend*>(&store.backend())),
      hook_flags_(hook_flags),
      lru_(
          capacity,
          [this](const Digest& name, Slot& slot) {
            write_back(name, slot);
            drop_from_index(name, slot);
          },
          max_bytes, [](const Slot& slot) { return slot.weight; }),
      owned_index_(index == nullptr ? std::make_unique<MemIndex>() : nullptr),
      index_(index == nullptr ? owned_index_.get() : index) {}

ManifestCache::~ManifestCache() = default;

void ManifestCache::write_back(const Digest& name, Slot& slot) {
  if (!slot.manifest.dirty()) return;
  store_.put_manifest(name.hex(), slot.manifest.serialize(hook_flags_));
  slot.manifest.set_dirty(false);
}

void ManifestCache::drop_from_index(const Digest& name, const Slot& slot) {
  for (const auto& entry : slot.manifest.entries()) {
    const auto hit = index_->lookup(entry.hash);
    if (hit && hit->manifest == name) index_->erase(entry.hash);
  }
  // Hashes HHR removed from this manifest were already erased by
  // ensure_index's removed-hash pass, so nothing can linger.
}

void ManifestCache::ensure_index(const Digest& name, Slot& slot) {
  if (!slot.index_stale) return;
  // Hashes present in the previous build of this manifest's table but not
  // in the current entries were rewritten by HHR: erase their index
  // entries eagerly instead of leaving them to linger until eviction
  // (the historical unbounded-growth leak of the global map).
  std::vector<Digest> previous;
  previous.reserve(slot.by_hash.size());
  for (const auto& [hash, idx] : slot.by_hash) previous.push_back(hash);
  slot.by_hash.clear();
  const auto& entries = slot.manifest.entries();
  slot.by_hash.reserve(entries.size());
  const std::string chunk_hex =
      containers_ ? slot.manifest.chunk_name().hex() : std::string();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    slot.by_hash.emplace(entries[i].hash, i);
    IndexEntry ie{name, entries[i].offset};
    if (containers_ != nullptr) {
      // Location record: resolve the chunk's physical container so
      // index-only consumers see placement (ContainerBackend::locate stays
      // the authoritative query; nullopt leaves the kNoContainer sentinel).
      if (const auto c = containers_->locate(chunk_hex, entries[i].offset)) {
        ie.container = *c;
      }
    }
    index_->put(entries[i].hash, ie);
  }
  for (const auto& hash : previous) {
    if (slot.by_hash.count(hash) > 0) continue;
    const auto hit = index_->lookup(hash);
    if (hit && hit->manifest == name) index_->erase(hash);
  }
  slot.index_stale = false;
}

std::optional<ManifestCache::Located> ManifestCache::lookup_hash(
    const Digest& chunk_hash) {
  const auto hit = index_->lookup(chunk_hash);
  if (!hit) return std::nullopt;
  const Digest owner = hit->manifest;
  Slot* slot = lru_.get(owner);
  if (slot == nullptr) {
    // Owner was evicted and the index entry is stale.
    index_->erase(chunk_hash);
    return std::nullopt;
  }
  ensure_index(owner, *slot);
  const auto found = slot->by_hash.find(chunk_hash);
  if (found == slot->by_hash.end()) {
    // Hash disappeared from the manifest (HHR rewrote it): self-heal.
    index_->erase(chunk_hash);
    return std::nullopt;
  }
  return Located{owner, &slot->manifest, found->second};
}

Manifest* ManifestCache::load(const Digest& name) {
  if (Slot* slot = lru_.get(name)) {
    ensure_index(name, *slot);
    return &slot->manifest;
  }
  const auto raw = store_.get_manifest(name.hex());
  if (!raw) return nullptr;
  auto manifest = Manifest::deserialize(*raw);
  if (!manifest) return nullptr;
  ++loads_;
  Slot slot;
  slot.manifest = std::move(*manifest);
  slot.weight = 64 + slot.manifest.entries().size() * 37;
  Slot& placed = lru_.put(name, std::move(slot));
  ensure_index(name, placed);
  return &placed.manifest;
}

Manifest* ManifestCache::cached(const Digest& name) {
  Slot* slot = lru_.get(name);
  if (slot == nullptr) return nullptr;
  ensure_index(name, *slot);
  return &slot->manifest;
}

Manifest* ManifestCache::insert(const Digest& name, Manifest manifest,
                                bool dirty) {
  // A freshly built manifest is the stream of chunks just STORED (loads
  // and warm reloads never come through insert): exactly what the sampled
  // tier's loss meter must watch for re-stored duplicates.
  for (const auto& entry : manifest.entries()) {
    index_->note_fresh_chunk(entry.hash, entry.size);
  }
  Slot slot;
  slot.manifest = std::move(manifest);
  slot.manifest.set_dirty(dirty);
  slot.weight = 64 + slot.manifest.entries().size() * 37;
  Slot& placed = lru_.put(name, std::move(slot));
  ensure_index(name, placed);
  return &placed.manifest;
}

void ManifestCache::mark_dirty(const Digest& name) {
  if (Slot* slot = lru_.peek(name)) slot->manifest.set_dirty(true);
}

void ManifestCache::invalidate_index(const Digest& name) {
  if (Slot* slot = lru_.peek(name)) {
    slot->index_stale = true;
    // Rebuild eagerly: HHR's new entry hashes (the duplicate part and the
    // EdgeHash) must become anchorable immediately — a lazy rebuild would
    // only happen after some *other* hash of this manifest is hit.
    ensure_index(name, *slot);
  }
}

void ManifestCache::flush() {
  lru_.for_each([this](const Digest& name, Slot& slot) {
    write_back(name, slot);
  });
}

void ManifestCache::reset() {
  // The eviction callback writes dirty manifests back and drops their
  // entries from the index, so a full flush leaves the index empty.
  lru_.flush();
}

std::vector<Digest> ManifestCache::resident_names() {
  std::vector<Digest> names;
  names.reserve(lru_.size());
  lru_.for_each([&](const Digest& name, Slot&) { names.push_back(name); });
  return names;
}

void ManifestCache::warm_load(const std::vector<Digest>& names) {
  // Insert least-recently-used first so put() recreates the recency order
  // the snapshot was taken with.
  for (auto it = names.rbegin(); it != names.rend(); ++it) {
    if (lru_.contains(*it)) continue;
    std::optional<ByteVec> raw;
    try {
      raw = store_.backend().get(Ns::kManifest, it->hex());
    } catch (const CorruptObjectError&) {
      continue;  // skipped: the warm set is advisory
    }
    if (!raw) continue;
    auto manifest = Manifest::deserialize(*raw);
    if (!manifest) continue;
    Slot slot;
    slot.manifest = std::move(*manifest);
    slot.weight = 64 + slot.manifest.entries().size() * 37;
    Slot& placed = lru_.put(*it, std::move(slot));
    ensure_index(*it, placed);
  }
}

}  // namespace mhd
