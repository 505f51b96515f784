#include "mhd/store/maintenance.h"

#include <unordered_set>

#include "mhd/format/file_manifest.h"
#include "mhd/format/manifest.h"
#include "mhd/hash/sha1.h"
#include "mhd/index/sampled_index.h"
#include "mhd/store/container_store.h"
#include "mhd/store/scoped_backend.h"
#include "mhd/util/hex.h"

namespace mhd {

namespace {

/// Mark-and-sweep of one scope, seen through `backend`; adds to `report`.
void collect_scope(StorageBackend& backend, GcReport& report) {
  // Mark: every DiskChunk referenced by any FileManifest.
  std::unordered_set<std::string> live;
  for (const auto& name : backend.list(Ns::kFileManifest)) {
    const auto raw = backend.get(Ns::kFileManifest, name);
    const auto fm = raw ? FileManifest::deserialize(*raw) : std::nullopt;
    if (!fm) continue;
    for (const auto& e : fm->entries()) live.insert(e.chunk_name.hex());
  }
  report.live_chunks += live.size();

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
      const auto m = raw ? Manifest::deserialize(*raw) : std::nullopt;
      const auto chunk = backend.get(Ns::kDiskChunk, name);
      keep = m && chunk && m->chunk_name().hex() == name &&
             m->tiles(chunk->size());
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

  // The disk tier's warm list may name swept manifests, and its aux blobs
  // describe data that may be gone: delete the tier (every index object
  // outside the sampled family, including the page, journal and bloom
  // objects earlier versions wrote), so the next open starts cold.
  for (const auto& name : backend.list(Ns::kIndex)) {
    if (name.rfind("sampled-", 0) != 0) backend.remove(Ns::kIndex, name);
  }

  // Same for the sampled similarity tier: swept champions must drop out
  // of the hook table so no hook hit can reload a deleted segment.
  if (SampledIndex::present(backend)) {
    const std::uint64_t before = check_sampled_index(backend).champion_refs;
    rebuild_sampled_index(backend);
    const auto after = check_sampled_index(backend);
    report.sampled_index_rebuilt = true;
    report.sampled_hook_entries += after.hook_entries;
    report.dropped_sampled_champions +=
        before > after.champion_refs ? before - after.champion_refs : 0;
  }
}

}  // namespace

std::optional<std::string> hook_target(ByteSpan payload) {
  if (payload.size() != Digest::kSize) return std::nullopt;
  return hex_encode(payload);
}

bool delete_file(StorageBackend& backend, const std::string& file_name) {
  return backend.remove(Ns::kFileManifest,
                        Sha1::hash(as_bytes(file_name)).hex());
}

GcReport collect_garbage(StorageBackend& backend,
                         ContainerBackend* containers) {
  GcReport report;
  for (const auto& scope : list_scopes(backend)) {
    ScopedBackend view(backend, scope);
    collect_scope(view, report);
  }
  // The chunk sweeps released dead chunks' extent maps; containers
  // referenced by no surviving map, in any scope, follow them.
  if (containers != nullptr) {
    const auto [removed, reclaimed] = containers->sweep_containers();
    report.deleted_containers = removed;
    report.container_bytes_reclaimed = reclaimed;
  }
  return report;
}

}  // namespace mhd
