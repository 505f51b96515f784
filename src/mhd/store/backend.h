// Storage backend interface — a namespaced, name-addressable object store.
//
// The paper's prototype stores DiskChunks, Hooks, Manifests and
// FileManifests as separate hash-addressable files in an Ext3 directory
// tree; each file costs one inode (256 bytes in the paper's accounting).
// MemoryBackend models that accounting (fast, exact: one inode per
// object), and the paper's tables are computed from it. FileBackend
// stores real bytes, so the same engine code runs in simulation and for
// real end-to-end backups, but it does not keep the one-file-per-object
// layout everywhere: a packed object (ns_layout) is a record in a pack
// file, not an inode (store/file_backend.h).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "mhd/util/bytes.h"

namespace mhd {

enum class Ns : int {
  kDiskChunk = 0,
  kHook,
  kManifest,
  kFileManifest,
  /// Index-tier objects: the disk tier's warm residency list and engine
  /// aux blobs (index/persistent_index.h), the sampled tier's "sampled-"
  /// family (index/sampled_index.h). Advisory: never needed to restore
  /// data; a lost one costs missed duplicates at most.
  kIndex,
  /// Fixed-size containers packing chunk bytes in write order (record
  /// streams, like DiskChunks). Only present when the repository runs a
  /// ContainerBackend — see store/container_store.h.
  kContainer,
  /// Per-DiskChunk extent maps: logical chunk ranges -> (container,
  /// offset) placements. Sealed objects; committing one is the durability
  /// point of a chunk (and of a rewrite decision).
  kChunkMap,
  kCount,
};

const char* ns_name(Ns ns);

/// How a namespace's objects are laid out — the one place that says which
/// namespaces are record streams (FramedBackend frames those record by
/// record) and which FileBackend packs.
enum class NsLayout {
  /// Appended in place, one file per object: DiskChunks and containers.
  kStream,
  /// Put-only objects whose count grows with the data (hooks, manifests,
  /// file manifests, chunk maps): FileBackend appends them as records to
  /// per-writer pack files.
  kPacked,
  /// One file per object, rewritten whole: the index namespace's few
  /// repository-level objects, which a pack would grow by their full size
  /// at every flush.
  kLoose,
};
NsLayout ns_layout(Ns ns);

/// A byte range of the physical layout that holds no readable object: a
/// region of a FileBackend pack whose record headers fail their check.
struct LayoutDamage {
  Ns ns;
  std::string file;  ///< the pack's file name within its namespace
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};
/// "<ns>/<file>@<offset> (<length> bytes)".
std::string to_string(const LayoutDamage& d);

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Creates or replaces an object.
  virtual void put(Ns ns, const std::string& name, ByteSpan data) = 0;

  /// Appends to an object, creating it if absent.
  virtual void append(Ns ns, const std::string& name, ByteSpan data) = 0;

  /// Appends `pieces` to an object in order. The contract is the default:
  /// one append per piece, so the objects, their bytes and the failures
  /// are those of that loop, and a decorator that counts, traces or
  /// faults appends sees every piece without overriding this. A layer
  /// overrides it only where the batch can go down in fewer calls: a
  /// stream layer keeps each piece a record of its own. `*landed`, when
  /// given, counts the pieces appended whole: all of them on return; on a
  /// throw, those before the one that failed, which may have landed in
  /// part.
  virtual void append_all(Ns ns, const std::string& name,
                          std::span<const ByteSpan> pieces,
                          std::size_t* landed = nullptr);

  /// Whole-object read; nullopt if absent.
  virtual std::optional<ByteVec> get(Ns ns, const std::string& name) const = 0;

  /// Range read; nullopt if absent or the range exceeds the object.
  virtual std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                           std::uint64_t offset,
                                           std::uint64_t length) const = 0;

  virtual bool exists(Ns ns, const std::string& name) const = 0;
  virtual bool remove(Ns ns, const std::string& name) = 0;

  /// Marks the end of an append stream. Raw backends need no terminator
  /// (no-op); durability decorators write an end-of-stream seal record so
  /// a truncation at a record boundary is distinguishable from a clean
  /// close. ChunkWriter::close() calls this once per finished DiskChunk.
  virtual void seal(Ns /*ns*/, const std::string& /*name*/) {}

  /// Number of objects (== inodes) in a namespace.
  virtual std::uint64_t object_count(Ns ns) const = 0;
  /// Total content bytes in a namespace.
  virtual std::uint64_t content_bytes(Ns ns) const = 0;
  virtual std::vector<std::string> list(Ns ns) const = 0;

  /// Damage below the objects, which no object read reports: fsck asks
  /// for it here. Decorators forward it; a layout with one file or one map
  /// entry per object has none.
  virtual std::vector<LayoutDamage> layout_damage() const { return {}; }

  /// Paper's storage-management accounting: one inode = 256 bytes.
  static constexpr std::uint64_t kInodeBytes = 256;

  std::uint64_t total_objects() const;
  std::uint64_t total_content_bytes() const;
  /// content + 256 bytes per inode across all namespaces.
  std::uint64_t stored_bytes_with_inodes() const;
};

}  // namespace mhd
