// fsck — the repository's one integrity checker, and its repair pass.
//
// FileManifests point at DiskChunks, Hooks at Manifests, and each standard
// Manifest tiles its DiskChunk, all by bare names within one scope: the
// daemon prefixes each tenant's objects with `<tenant>.`. So fsck walks
// the repository one scope at a time (list_scopes, scoped_backend.h).
// Containers sit below the scopes, shared by all, and are checked once,
// and so is the layout below the objects: the backend's layout_damage()
// (pack regions whose record headers fail their check) is reported as
// corrupt, by pack and offset. A torn pack tail is not an issue, just as a
// stale temp file is not: FileBackend::sweep_temps truncates the one and
// removes the other.
//
// The caller says, from the repository's descriptor, what `backend` holds:
//   * framed: the RAW layer below FramedBackend. Every DiskChunk and
//     container record stream is scanned (clean / torn-tail / corrupt)
//     and every sealed object's trailer CRC checked.
//   * plain: the physical layer of an unframed repository, or a logical
//     stack such as the daemon's, whose reads verify themselves (a
//     CorruptObjectError counts as a corrupt object). A chunk
//     Ns::kDiskChunk lists is read through it, so a container layer above
//     serves its still-open container from RAM.
//
// The reference pass, per scope: committed chunk maps must resolve every
// extent into an intact container (a chunk Ns::kDiskChunk does not list
// takes its length from its map); FileManifest entries must resolve to
// existing chunks within their logical size; each standard manifest must
// tile its chunk, and every entry's SHA-1 must match the chunk's bytes
// (checked holding one chunk, or one container, at a time, never a
// container cache); hooks must point at an existing manifest; every
// disk-tier index object must be sealed, and a sampled tier must name only
// live manifests. Clean chunks referenced by no
// FileManifest, and containers referenced by no chunk map, are orphans:
// informational, collect_garbage() reclaims them.
//
// With `repair`:
//   * torn stream tails are truncated to the last intact record and
//     re-sealed, so every byte before the tear is salvaged (framed);
//   * corrupt objects are quarantined: removed, and with a quarantine
//     directory (the CLIs pass <repo>/quarantine) preserved under
//     <dir>/<namespace>/ for forensics. Only framed: without framing no
//     verdict says which bytes are wrong;
//   * dangling hooks and damaged disk-tier index objects are dropped, and
//     an inconsistent sampled tier is rebuilt from its scope's hooks —
//     all advisory indexes, never user data.
// Broken references, hash mismatches and orphans are only reported.
//
// Used by fsck_cli, `dedup_cli serve --fsck-on-start`, the daemon's
// `maintain fsck` and the crash-recovery harness (crash at op k → reopen
// → fsck --repair → resume → restore byte-identical).
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
    kIndexInconsistent,  ///< index object unsealed, or sampled tier stale
    kHashMismatch,  ///< manifest entry's SHA-1 differs from its chunk bytes
  };
  enum class Action {
    kNone,             ///< reported only
    kTruncatedSealed,  ///< torn tail cut at last intact record + resealed
    kQuarantined,      ///< removed; bytes preserved under quarantine/
    kRemoved,          ///< dropped (dangling hooks, disk-tier objects)
    kRebuilt,          ///< sampled tier rebuilt from the hooks
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
  std::uint64_t hash_mismatches = 0;  ///< manifests with a mismatching entry
  std::uint64_t orphans = 0;
  std::uint64_t repaired = 0;
  std::uint64_t salvaged_bytes = 0;  ///< logical bytes kept from torn tails
  std::uint64_t index_issues = 0;  ///< inconsistent index objects found
  /// Sampled similarity tier (zero when none is present).
  std::uint64_t sampled_hook_entries = 0;
  std::uint64_t stale_sampled_champions = 0;  ///< champion -> missing manifest
  std::vector<FsckIssue> issues;

  /// Orphans are informational; everything else dirties the repository.
  bool clean() const {
    return torn == 0 && corrupt == 0 && dangling_hooks == 0 &&
           broken_refs == 0 && hash_mismatches == 0 && index_issues == 0;
  }

  std::string to_string() const;
};

/// Full fsck pass over a repository whose bytes are framed (the raw layer
/// of a framed repository) or plain (see the file comment). With
/// repair=false the backend is never mutated.
FsckReport fsck_repository(StorageBackend& backend, bool repair,
                           const std::filesystem::path& quarantine_dir = {},
                           bool framed = true);

}  // namespace mhd
