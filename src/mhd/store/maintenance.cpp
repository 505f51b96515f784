#include "mhd/store/maintenance.h"

#include <unordered_set>

#include "mhd/format/file_manifest.h"
#include "mhd/index/persistent_index.h"
#include "mhd/index/sampled_index.h"
#include "mhd/format/manifest.h"
#include "mhd/hash/sha1.h"
#include "mhd/store/container_store.h"
#include "mhd/store/store_errors.h"
#include "mhd/util/hex.h"

namespace mhd {

namespace {

/// Hex-decoded manifest name from a hook payload (20-byte digest).
std::optional<std::string> hook_target(const ByteVec& payload) {
  if (payload.size() != Digest::kSize) return std::nullopt;
  return hex_encode({payload.data(), payload.size()});
}

/// True if `raw` parses as a standard 1:1 Manifest for the object `name`
/// whose entries are fully contained in a chunk of `chunk_size` bytes —
/// i.e. it cannot reference any other (possibly deleted) chunk.
bool is_self_contained_manifest(const std::string& name, const ByteVec& raw,
                                std::uint64_t chunk_size) {
  const auto m = Manifest::deserialize(raw);
  if (!m || m->chunk_name().hex() != name) return false;
  std::uint64_t covered = 0;
  for (const auto& e : m->entries()) {
    if (e.offset != covered) return false;
    covered += e.size;
  }
  return covered == chunk_size;
}

}  // namespace

ScrubReport scrub_repository(const StorageBackend& backend) {
  ScrubReport report;

  // On a framed backend a CRC-failing object throws; scrub keeps going —
  // one rotten object must not hide damage elsewhere in the repository.
  const auto safe_get = [&](Ns ns,
                            const std::string& name) -> std::optional<ByteVec> {
    try {
      return backend.get(ns, name);
    } catch (const CorruptObjectError&) {
      ++report.corrupt_objects;
      return std::nullopt;
    }
  };
  const auto safe_get_range =
      [&](const std::string& name, std::uint64_t offset,
          std::uint64_t length) -> std::optional<ByteVec> {
    try {
      return backend.get_range(Ns::kDiskChunk, name, offset, length);
    } catch (const CorruptObjectError&) {
      ++report.corrupt_objects;
      return std::nullopt;
    }
  };

  // FileManifests: every range must resolve to stored bytes.
  for (const auto& name : backend.list(Ns::kFileManifest)) {
    ++report.file_manifests;
    const auto raw = safe_get(Ns::kFileManifest, name);
    const auto fm = raw ? FileManifest::deserialize(*raw) : std::nullopt;
    if (!fm) {
      ++report.unparseable;
      continue;
    }
    for (const auto& e : fm->entries()) {
      if (!safe_get_range(e.chunk_name.hex(), e.offset, e.length)
               .has_value()) {
        ++report.broken_file_ranges;
      }
    }
  }

  // Manifests: standard-format ones must hash-match and tile their chunk.
  for (const auto& name : backend.list(Ns::kManifest)) {
    ++report.manifests;
    const auto raw = safe_get(Ns::kManifest, name);
    if (!raw) {
      ++report.unparseable;
      continue;
    }
    const auto m = Manifest::deserialize(*raw);
    if (!m || m->chunk_name().hex() != name) {
      // Engine-specific format (SubChunk groups, SparseIndexing segments,
      // Extreme Binning bins): integrity is covered via FileManifests.
      ++report.opaque_manifests;
      continue;
    }
    const auto chunk = safe_get(Ns::kDiskChunk, name);
    if (!chunk) {
      // A manifest for a missing chunk is an error (GC removes them).
      ++report.manifest_coverage_errors;
      continue;
    }
    std::uint64_t covered = 0;
    for (const auto& e : m->entries()) {
      if (e.offset != covered || e.offset + e.size > chunk->size()) {
        ++report.manifest_coverage_errors;
        break;
      }
      covered += e.size;
      if (Sha1::hash({chunk->data() + e.offset, e.size}) != e.hash) {
        ++report.manifest_hash_mismatches;
      }
    }
    if (covered != chunk->size()) ++report.manifest_coverage_errors;
  }

  // Hooks: must point at an existing manifest.
  for (const auto& name : backend.list(Ns::kHook)) {
    ++report.hooks;
    const auto payload = safe_get(Ns::kHook, name);
    const auto target = payload ? hook_target(*payload) : std::nullopt;
    if (!target || !backend.exists(Ns::kManifest, *target)) {
      ++report.dangling_hooks;
    }
  }

  // Persistent fingerprint index (when present): every entry must point
  // at an existing manifest — a stale entry means a future backup could
  // anchor on deleted data. Unindexed hooks are informational (a lost
  // journal tail; the duplicates are re-learned through the hooks).
  if (PersistentIndex::present(backend)) {
    const IndexCheckReport index = check_index(backend);
    report.index_entries = index.entries;
    report.stale_index_entries = index.stale_entries;
    report.unindexed_hooks = index.unindexed_hooks;
    report.corrupt_objects += index.corrupt_objects;
    if (!index.meta_ok) ++report.corrupt_objects;
  }

  // Sampled similarity tier (when present): every champion reference must
  // point at an existing manifest — a stale champion could pull a swept
  // segment back into the cache as a dedup target.
  if (SampledIndex::present(backend)) {
    const SampledCheckReport sampled = check_sampled_index(backend);
    report.sampled_hook_entries = sampled.hook_entries;
    report.stale_sampled_champions = sampled.stale_champions;
    report.corrupt_objects += sampled.corrupt_objects;
    if (!sampled.meta_ok) ++report.corrupt_objects;
  }

  report.chunks = backend.object_count(Ns::kDiskChunk);
  return report;
}

bool delete_file(StorageBackend& backend, const std::string& file_name) {
  return backend.remove(Ns::kFileManifest,
                        Sha1::hash(as_bytes(file_name)).hex());
}

GcReport collect_garbage(StorageBackend& backend) {
  GcReport report;

  // Mark: every DiskChunk referenced by any FileManifest.
  std::unordered_set<std::string> live;
  for (const auto& name : backend.list(Ns::kFileManifest)) {
    const auto raw = backend.get(Ns::kFileManifest, name);
    const auto fm = raw ? FileManifest::deserialize(*raw) : std::nullopt;
    if (!fm) continue;
    for (const auto& e : fm->entries()) live.insert(e.chunk_name.hex());
  }
  report.live_chunks = live.size();

  // Sweep dead chunks.
  for (const auto& name : backend.list(Ns::kDiskChunk)) {
    if (live.count(name) > 0) continue;
    report.reclaimed_bytes +=
        backend.get(Ns::kDiskChunk, name).value_or(ByteVec{}).size();
    backend.remove(Ns::kDiskChunk, name);
    ++report.deleted_chunks;
  }

  // Sweep manifests. Kept only when provably safe: a standard 1:1
  // manifest whose entries are fully contained in its own (live) chunk —
  // the MHD/CDC/Bimodal/FBC family. Everything else (SubChunk group
  // manifests, SparseIndexing segment manifests, Extreme Binning bins)
  // references *other* containers that may just have been deleted, so
  // their deduplication state is dropped rather than risking a future
  // backup referencing reclaimed bytes. Restores never read Manifests, so
  // this only resets similarity indexes; run GC offline (no engine open),
  // as in-RAM indexes would go stale.
  for (const auto& name : backend.list(Ns::kManifest)) {
    bool keep = false;
    if (live.count(name) > 0) {
      const auto raw = backend.get(Ns::kManifest, name);
      const auto chunk = backend.get(Ns::kDiskChunk, name);
      keep = raw && chunk &&
             is_self_contained_manifest(name, *raw, chunk->size());
    }
    if (!keep) {
      if (backend.remove(Ns::kManifest, name)) ++report.deleted_manifests;
    }
  }

  // Sweep hooks pointing at deleted manifests.
  for (const auto& name : backend.list(Ns::kHook)) {
    const auto payload = backend.get(Ns::kHook, name);
    const auto target = payload ? hook_target(*payload) : std::nullopt;
    if (!target || !backend.exists(Ns::kManifest, *target)) {
      backend.remove(Ns::kHook, name);
      ++report.deleted_hooks;
    }
  }

  // With a container layer, the chunk sweep above released dead chunks'
  // extent maps; containers referenced by no surviving map follow them.
  if (auto* containers = dynamic_cast<ContainerBackend*>(&backend)) {
    const auto [removed, reclaimed] = containers->sweep_containers();
    report.deleted_containers = removed;
    report.container_bytes_reclaimed = reclaimed;
  }

  // The persistent fingerprint index (when present) may still map the
  // swept manifests' fingerprints; rebuild it from the surviving hooks so
  // no stale entry can ever resurrect a deleted chunk.
  if (PersistentIndex::present(backend)) {
    const std::uint64_t before = check_index(backend).entries;
    rebuild_index(backend);
    report.index_rebuilt = true;
    report.index_entries = check_index(backend).entries;
    report.dropped_index_entries =
        before > report.index_entries ? before - report.index_entries : 0;
  }

  // Same for the sampled similarity tier: swept champions must drop out
  // of the hook table so no hook hit can reload a deleted segment.
  if (SampledIndex::present(backend)) {
    const std::uint64_t before = check_sampled_index(backend).champion_refs;
    rebuild_sampled_index(backend);
    report.sampled_index_rebuilt = true;
    const auto after = check_sampled_index(backend);
    report.sampled_hook_entries = after.hook_entries;
    report.dropped_sampled_champions =
        before > after.champion_refs ? before - after.champion_refs : 0;
  }
  return report;
}

}  // namespace mhd
