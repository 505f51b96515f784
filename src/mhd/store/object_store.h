// ObjectStore — the accounting façade every engine talks to.
//
// It wraps a StorageBackend and records one categorized disk access per
// logical operation (matching the paper's TABLE II cost model: sequential
// output of a whole DiskChunk is one access; each hook lookup, manifest
// load/store, and chunk-byte reload is one access). Byte counts accumulate
// separately for the bandwidth term of the DiskModel.
#pragma once

#include <memory>
#include <string>

#include "mhd/hash/digest.h"
#include "mhd/store/backend.h"
#include "mhd/store/stats.h"

namespace mhd {

class ContainerBackend;
class ObjectStore;

/// Sequential writer for a DiskChunk being assembled. Opening one touches
/// no backend; closing one that received bytes seals the chunk and
/// accounts a single kChunkOut access (sequential stream = one
/// positioning). A writer that received no bytes leaves no trace, so an
/// engine may open its writer up front and write to it or not.
class ChunkWriter {
 public:
  /// Move disarms the source: only the destination's close() records the
  /// access (a defaulted move would double-count on destruction).
  ChunkWriter(ChunkWriter&& other) noexcept
      : store_(other.store_),
        name_(std::move(other.name_)),
        bytes_(other.bytes_),
        closed_(other.closed_) {
    other.closed_ = true;
  }
  ChunkWriter& operator=(ChunkWriter&&) = delete;
  ~ChunkWriter();

  /// Appends `data`; returns the offset in the chunk it landed at.
  std::uint64_t write(ByteSpan data) {
    return write_all(std::span<const ByteSpan>(&data, 1));
  }
  /// Appends `pieces` in order with one backend call, each a record of its
  /// own in a framed store; returns the offset the first landed at, the
  /// rest following it. On a throw, the pieces that landed whole count as
  /// written, as they would one write at a time.
  std::uint64_t write_all(std::span<const ByteSpan> pieces);
  std::uint64_t bytes_written() const { return bytes_; }
  const std::string& name() const { return name_; }

  /// Finalizes the object and records the access, if any bytes were
  /// written. Idempotent.
  void close();

 private:
  friend class ObjectStore;
  ChunkWriter(ObjectStore* store, std::string name);

  ObjectStore* store_;
  std::string name_;
  std::uint64_t bytes_ = 0;
  bool closed_ = false;
};

class ObjectStore {
 public:
  /// `containers` is the stack's container layer, which rewriting and the
  /// index's placement hints read; a tenant view has none.
  explicit ObjectStore(StorageBackend& backend,
                       const ContainerBackend* containers = nullptr)
      : backend_(backend), containers_(containers) {}

  // --- DiskChunks (immutable once closed) -------------------------------
  ChunkWriter open_chunk(const std::string& name);
  /// Reload of stored chunk bytes (the HHR byte-comparison path).
  std::optional<ByteVec> read_chunk_range(const std::string& name,
                                          std::uint64_t offset,
                                          std::uint64_t length);

  // --- Hooks (immutable hash-named sample files) -------------------------
  void put_hook(const Digest& hook_hash, ByteSpan payload);
  /// Disk lookup of a hook by content hash; counted under `query_kind`
  /// when the hook is absent (a pure failed index probe) and as kHookIn
  /// when present (the hook file is actually read).
  std::optional<ByteVec> get_hook(const Digest& hook_hash,
                                  AccessKind query_kind);

  // --- Manifests (the only mutable metadata) ------------------------------
  void put_manifest(const std::string& name, ByteSpan data);
  std::optional<ByteVec> get_manifest(const std::string& name);

  // --- FileManifests ------------------------------------------------------
  void put_file_manifest(const std::string& name, ByteSpan data);

  StorageBackend& backend() { return backend_; }
  const StorageBackend& backend() const { return backend_; }
  const ContainerBackend* containers() const { return containers_; }
  StorageStats& stats() { return stats_; }
  const StorageStats& stats() const { return stats_; }

 private:
  friend class ChunkWriter;
  StorageBackend& backend_;
  const ContainerBackend* containers_;
  StorageStats stats_;
};

}  // namespace mhd
