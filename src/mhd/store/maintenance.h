// Repository maintenance: deletion and garbage collection.
//
// The paper's system only ever adds backups; a production deduplication
// store also needs deletion. Deletion is two-phase here, as in most
// content-addressed stores:
//   1. delete_file() removes a FileManifest (the only object that makes
//      a file reachable);
//   2. collect_garbage() mark-and-sweeps: DiskChunks referenced by no
//      FileManifest are deleted together with their Manifests, and hooks
//      whose target manifest disappeared are dropped.
// References inside objects are bare names within the referencing
// object's scope (the daemon prefixes each tenant's names with
// `<tenant>.`), so collect_garbage() marks and sweeps one scope at a time
// (list_scopes in scoped_backend.h). fsck_repository() (scrub.h) checks
// the invariants both rely on.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "mhd/store/backend.h"

namespace mhd {

class ContainerBackend;

/// The manifest a hook names: the hex of its 20-byte payload, nullopt for
/// a malformed payload.
std::optional<std::string> hook_target(ByteSpan payload);

/// Removes the FileManifest of `file_name`; returns false if absent.
/// The file's data becomes garbage-collectable unless shared.
bool delete_file(StorageBackend& backend, const std::string& file_name);

/// Totals over every scope collect_garbage() swept.
struct GcReport {
  std::uint64_t live_chunks = 0;
  std::uint64_t deleted_chunks = 0;
  std::uint64_t deleted_manifests = 0;
  std::uint64_t deleted_hooks = 0;
  std::uint64_t reclaimed_bytes = 0;
  /// Sampled similarity tier, when one exists: rebuilt from the surviving
  /// hooks so swept champions drop out of the hook table. (gc deletes the
  /// disk tier's objects and reports nothing about them.)
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

/// Mark-and-sweep garbage collection of every scope of `backend` (see file
/// comment); after each scope's sweep, its disk-tier index objects are
/// deleted and its sampled tier is rebuilt. Safe to run at any time
/// between backups; never touches objects reachable from a FileManifest
/// of the same scope. On a framed store a CorruptObjectError
/// propagates: a FileManifest that cannot be read could reference any
/// chunk, so sweeping past it would risk deleting live data — run
/// fsck_repository() first. With the stack's container layer
/// (BackendStack::containers()), containers are swept once after every
/// scope: tenants share them, so only the chunk maps of all scopes together
/// say which are dead. The daemon's online gc passes none.
GcReport collect_garbage(StorageBackend& backend,
                         ContainerBackend* containers = nullptr);

}  // namespace mhd
