// Repository maintenance: integrity scrubbing and garbage collection.
//
// The paper's system only ever adds backups; a production deduplication
// store also needs deletion. Deletion is two-phase here, as in most
// content-addressed stores:
//   1. delete_file() removes a FileManifest (the only object that makes
//      a file reachable);
//   2. collect_garbage() mark-and-sweeps: DiskChunks referenced by no
//      FileManifest are deleted together with their Manifests, and hooks
//      whose target manifest disappeared are dropped.
// scrub_repository() verifies the invariants everything else relies on:
// every FileManifest range resolves, every (parseable) Manifest's entries
// hash-match its DiskChunk bytes and tile it exactly, and every hook
// points at an existing manifest.
#pragma once

#include <cstdint>
#include <string>

#include "mhd/store/backend.h"

namespace mhd {

class ContainerBackend;

struct ScrubReport {
  std::uint64_t file_manifests = 0;
  std::uint64_t manifests = 0;
  std::uint64_t opaque_manifests = 0;  ///< engine-specific formats, skipped
  std::uint64_t chunks = 0;
  std::uint64_t hooks = 0;

  std::uint64_t broken_file_ranges = 0;   ///< FileManifest range unresolvable
  std::uint64_t manifest_hash_mismatches = 0;
  std::uint64_t manifest_coverage_errors = 0;  ///< entries don't tile chunk
  std::uint64_t dangling_hooks = 0;            ///< hook -> missing manifest
  std::uint64_t unparseable = 0;
  std::uint64_t corrupt_objects = 0;  ///< CRC-failing reads (framed stores)

  // Persistent fingerprint index (zero when no index is present).
  std::uint64_t index_entries = 0;
  std::uint64_t stale_index_entries = 0;  ///< entry -> missing manifest
  std::uint64_t unindexed_hooks = 0;      ///< informational (lost journal)

  // Sampled similarity tier (zero when none is present): hook-table
  // entries are cross-checked against live manifests — a stale champion
  // could pull a swept segment back into the cache.
  std::uint64_t sampled_hook_entries = 0;
  std::uint64_t stale_sampled_champions = 0;

  bool clean() const {
    return broken_file_ranges == 0 && manifest_hash_mismatches == 0 &&
           manifest_coverage_errors == 0 && dangling_hooks == 0 &&
           unparseable == 0 && corrupt_objects == 0 &&
           stale_index_entries == 0 && stale_sampled_champions == 0;
  }
};

/// Full integrity pass over a repository (read-only).
ScrubReport scrub_repository(const StorageBackend& backend);

/// Removes the FileManifest of `file_name`; returns false if absent.
/// The file's data becomes garbage-collectable unless shared.
bool delete_file(StorageBackend& backend, const std::string& file_name);

struct GcReport {
  std::uint64_t live_chunks = 0;
  std::uint64_t deleted_chunks = 0;
  std::uint64_t deleted_manifests = 0;
  std::uint64_t deleted_hooks = 0;
  std::uint64_t reclaimed_bytes = 0;
  /// Persistent fingerprint index, when one exists: GC rebuilds it from
  /// the surviving hooks so swept manifests leave no stale entries.
  bool index_rebuilt = false;
  std::uint64_t index_entries = 0;
  std::uint64_t dropped_index_entries = 0;
  /// Sampled similarity tier, when one exists: rebuilt the same way so
  /// swept champions drop out of the hook table.
  bool sampled_index_rebuilt = false;
  std::uint64_t sampled_hook_entries = 0;
  std::uint64_t dropped_sampled_champions = 0;
  /// Container layer (zero without one): sealed containers referenced by
  /// no surviving chunk map, swept after the chunk sweep. Their payload
  /// bytes are the physical copies of the logical reclaimed_bytes, so
  /// they are reported separately, not added into reclaimed_bytes.
  std::uint64_t deleted_containers = 0;
  std::uint64_t container_bytes_reclaimed = 0;
};

/// Mark-and-sweep garbage collection (see file comment). Safe to run at
/// any time between backups; never touches objects reachable from a
/// FileManifest. On a framed store a CorruptObjectError propagates: a
/// FileManifest that cannot be read could reference any chunk, so sweeping
/// past it would risk deleting live data — run fsck_repository() first.
/// With the stack's container layer (BackendStack::containers()), dead
/// containers follow their chunks; the daemon's tenant-view gc has none.
GcReport collect_garbage(StorageBackend& backend,
                         ContainerBackend* containers = nullptr);

}  // namespace mhd
