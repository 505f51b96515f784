// fsck for framed repositories — the recovery half of the durability story.
//
// Operates on the RAW backend (the physical framed bytes *below*
// FramedBackend), where torn and corrupt structure is visible, and walks
// the whole repository:
//
//   1. Framing pass: every DiskChunk and container record stream is
//      scanned (clean / torn-tail / corrupt), every sealed object's
//      trailer CRC is checked (clean / corrupt). Committed chunk maps
//      (Ns::kChunkMap) must resolve every extent into an intact container
//      region; fully resolvable maps contribute their chunks' logical
//      lengths alongside legacy DiskChunk streams.
//   2. Reference pass: FileManifest entries must resolve to existing
//      chunks within their logical size; hooks must point at an existing
//      manifest; standard manifests must cover an existing chunk. Clean
//      chunks referenced by no FileManifest — and containers referenced by
//      no chunk map — are reported as orphans (informational — reclaiming
//      them is collect_garbage()'s / sweep_containers()'s job).
//
// With `repair`:
//   * torn chunk tails are truncated to the last intact record and the
//     stream re-sealed — every byte before the tear is salvaged;
//   * corrupt objects are quarantined: removed from the namespace, and
//     with a quarantine directory (the CLIs pass <repo>/quarantine) the
//     bytes are preserved under <dir>/<namespace>/ for offline forensics;
//   * dangling hooks are dropped (they are a rebuildable similarity
//     index, never user data);
//   * a persistent fingerprint index that is torn, stale (entries naming
//     quarantined manifests), or missing its meta is rebuilt from the
//     hooks namespace — the index is advisory and never user data.
// Broken references and orphans are reported, never auto-deleted.
//
// Used by examples/fsck_cli.cpp and the crash-recovery harness: crash at
// op k → reopen → fsck --repair → resume → restore byte-identical.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "mhd/store/backend.h"

namespace mhd {

struct FsckIssue {
  enum class Kind {
    kTornTail,      ///< chunk stream ends mid-record or unsealed
    kCorrupt,       ///< CRC/structure mismatch (bit rot, bad seal)
    kDanglingHook,  ///< hook -> missing manifest
    kBrokenRef,     ///< FileManifest/Manifest -> missing or short chunk
    kOrphan,        ///< clean chunk unreachable from any FileManifest
    kIndexInconsistent,  ///< fingerprint index stale/torn vs live objects
  };
  enum class Action {
    kNone,             ///< reported only
    kTruncatedSealed,  ///< torn tail cut at last intact record + resealed
    kQuarantined,      ///< removed; bytes preserved under quarantine/
    kRemoved,          ///< dropped (dangling hooks)
    kRebuilt,          ///< fingerprint index rebuilt from the hooks
  };

  Ns ns;
  std::string name;
  Kind kind;
  std::string detail;
  Action action = Action::kNone;
};

const char* fsck_kind_name(FsckIssue::Kind kind);
const char* fsck_action_name(FsckIssue::Action action);

struct FsckReport {
  std::uint64_t objects = 0;
  std::uint64_t clean_objects = 0;
  std::uint64_t torn = 0;
  std::uint64_t corrupt = 0;
  std::uint64_t dangling_hooks = 0;
  std::uint64_t broken_refs = 0;
  std::uint64_t orphans = 0;
  std::uint64_t repaired = 0;
  std::uint64_t salvaged_bytes = 0;  ///< logical bytes kept from torn tails
  /// Persistent fingerprint index (zero when no index is present).
  std::uint64_t index_entries = 0;
  std::uint64_t stale_index_entries = 0;  ///< entry -> missing manifest
  std::uint64_t index_issues = 0;  ///< inconsistent index structures found
  /// Sampled similarity tier (zero when none is present).
  std::uint64_t sampled_hook_entries = 0;
  std::uint64_t stale_sampled_champions = 0;  ///< champion -> missing manifest
  std::vector<FsckIssue> issues;

  /// Orphans are informational; everything else dirties the repository.
  bool clean() const {
    return torn == 0 && corrupt == 0 && dangling_hooks == 0 &&
           broken_refs == 0 && index_issues == 0;
  }

  std::string to_string() const;
};

/// Full fsck pass over a framed repository. With repair=false the backend
/// is never mutated.
FsckReport fsck_repository(StorageBackend& raw, bool repair,
                           const std::filesystem::path& quarantine_dir = {});

}  // namespace mhd
