// FramedBackend — the self-verifying layer of the storage stack.
//
// A StorageBackend decorator that stores every object with CRC32C framing
// (see framing.h) in the inner backend while presenting the *logical*
// (unframed) view to callers: content_bytes, get, and get_range all speak
// logical bytes, so engine accounting and manifest offsets are unchanged
// whether or not the repository is framed.
//
// Layering (outermost first):
//
//     ObjectStore → FramedBackend → [FaultInjectingBackend] → File/Memory
//
// Faults are injected *below* the framing, so a torn write or bit flip
// lands in framed bytes and is detected on the next read as a typed
// CorruptObjectError — absent stays nullopt, corrupt throws. fsck operates
// on the inner (raw) backend where torn/corrupt structure is visible.
//
// DiskChunks use per-append record framing and are finished by seal();
// the other namespaces are sealed whole objects. Appending to a sealed
// stream or reading an unsealed one is a caller bug and reads as corrupt.
//
// Range reads of record streams (DiskChunks, containers) cost the bytes
// they return. The first get_range of a stream through this backend reads
// it whole, checks every record and the seal, and keeps its *record
// table*: the physical offset of each record header, then of the seal
// (8 bytes per record). A whole get keeps no table: its callers, such as
// ContainerBackend loading a container, never range-read that object.
// Tables live in an LRU bounded by kTableCacheRecords and are dropped by
// put, append, seal and remove, and by a read that finds the stream
// damaged. A later get_range makes one inner read of the records that
// overlap the range, checks each one's magic, length and CRC, and copies
// out only the requested bytes. A mismatch or a short read drops the
// table and redoes the request as a first read, whose verdict (nullopt if
// absent, CorruptObjectError if torn or corrupt) is what the caller sees.
//
// Contract: every byte a range read returns was CRC-checked by that read.
// The seal and the other records were checked when the table was built;
// damage outside the range after that point is found by get, scrub or
// fsck. Sealed objects (hooks, manifests, index) are read and checked
// whole on every read.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "mhd/container/lru_cache.h"
#include "mhd/store/backend.h"

namespace mhd {

class FramedBackend final : public StorageBackend {
 public:
  /// Adopts pre-existing framed content in `inner` (reopening a
  /// repository): scans every object to rebuild logical sizes. Torn or
  /// corrupt objects count their salvageable logical prefix.
  explicit FramedBackend(StorageBackend& inner);

  void put(Ns ns, const std::string& name, ByteSpan data) override;
  void append(Ns ns, const std::string& name, ByteSpan data) override;
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override;
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override;
  bool exists(Ns ns, const std::string& name) const override;
  bool remove(Ns ns, const std::string& name) override;
  std::uint64_t object_count(Ns ns) const override;
  /// Logical payload bytes (framing overhead excluded).
  std::uint64_t content_bytes(Ns ns) const override;
  std::vector<std::string> list(Ns ns) const override;
  void seal(Ns ns, const std::string& name) override;

  /// Framed bytes actually stored below — physical − logical is the
  /// framing overhead.
  std::uint64_t physical_bytes(Ns ns) const { return inner_.content_bytes(ns); }

 private:
  using SizeMap = std::unordered_map<std::string, std::uint64_t>;
  SizeMap& sizes(Ns ns) { return sizes_[static_cast<int>(ns)]; }
  const SizeMap& sizes(Ns ns) const { return sizes_[static_cast<int>(ns)]; }

  /// Bound on the record tables kept for range reads, in records: 8 MiB.
  /// The most recently used table is kept even when it alone is larger.
  static constexpr std::uint64_t kTableCacheRecords = std::uint64_t{1} << 20;

  /// Physical offset of each record header of a verified stream, then of
  /// its seal. Never changes once built.
  using RecordTable = std::vector<std::uint64_t>;
  using TablePtr = std::shared_ptr<const RecordTable>;

  /// Whole logical object or a typed error; never a silent wrong answer.
  /// A damaged stream drops its record table; a clean one keeps it when
  /// `keep_table` is set.
  ByteVec verified_get(Ns ns, const std::string& name, const ByteVec& framed,
                       bool keep_table = false) const;

  /// The range from the records of `table` that overlap it; nullopt when
  /// the range lies outside the table or the inner object no longer
  /// matches it.
  std::optional<ByteVec> read_covering(Ns ns, const std::string& name,
                                       const RecordTable& table,
                                       std::uint64_t offset,
                                       std::uint64_t length) const;

  TablePtr find_table(Ns ns, const std::string& name) const;
  void drop_table(Ns ns, const std::string& name) const;

  StorageBackend& inner_;
  std::array<SizeMap, static_cast<int>(Ns::kCount)> sizes_;
  std::array<std::uint64_t, static_cast<int>(Ns::kCount)> bytes_{};

  mutable std::mutex tables_mu_;
  /// Keyed by namespace byte + name, weighted by record count.
  mutable LruCache<std::string, TablePtr> tables_;  // guarded by tables_mu_
};

}  // namespace mhd
