// Storage backend interface — a namespaced, name-addressable object store.
//
// The paper's prototype stores DiskChunks, Hooks, Manifests and
// FileManifests as separate hash-addressable files in an Ext3 directory
// tree; each file costs one inode (256 bytes in the paper's accounting).
// MemoryBackend simulates that (fast, fully accounted) and FileBackend
// writes real files, so the same engine code runs in simulation and for
// real end-to-end backups.
#pragma once

#include <cstdint>
#include <optional>
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

class StorageBackend {
 public:
  virtual ~StorageBackend() = default;

  /// Creates or replaces an object.
  virtual void put(Ns ns, const std::string& name, ByteSpan data) = 0;

  /// Appends to an object, creating it if absent.
  virtual void append(Ns ns, const std::string& name, ByteSpan data) = 0;

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

  /// Paper's storage-management accounting: one inode = 256 bytes.
  static constexpr std::uint64_t kInodeBytes = 256;

  std::uint64_t total_objects() const;
  std::uint64_t total_content_bytes() const;
  /// content + 256 bytes per inode across all namespaces.
  std::uint64_t stored_bytes_with_inodes() const;
};

}  // namespace mhd
