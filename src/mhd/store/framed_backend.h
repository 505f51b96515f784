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
// A batch (append_all) of a record stream frames each piece as a record
// of its own into one buffer this instance keeps, and hands the records
// down in one inner append_all per kBatchBytes of them: the records, the
// bytes and their order below are those of one append per piece. The
// buffer stays kBatchBytes however large the batch; only a single record
// larger than that gets a buffer of its size, freed after its call.
// Pieces that landed before a failed inner call count as appended, as
// they would one append at a time.
//
// Range reads of record streams (DiskChunks, containers) cost the bytes
// they return. Each range read uses the stream's *record table*: the
// physical offset of each record header, then of the seal (8 bytes per
// record). A DiskChunk stream this instance created (absent at its first
// append) gets its table from its writer: append records each header
// offset, and seal publishes the table once the seal, read back where the
// table puts it, shows that every append before it landed whole. Any
// other stream gets its table from its first get_range, which reads it
// whole and checks every record and the seal. A whole get keeps no table:
// its callers, such as ContainerBackend loading a container, never
// range-read that object, and containers never get a writer's table.
// Tables live in an LRU bounded by kTableCacheRecords and are dropped by
// put, remove, an append or seal that does not build one, and a read that
// finds the stream damaged. A table being built is discarded by put,
// remove, and an append or seal that throws; a throw publishes nothing.
// A later get_range makes one inner read of the records that overlap the
// range, checks each one's magic, length and CRC where that read left it,
// and slides only the requested bytes to the front of the same buffer. A
// mismatch or a short read drops the table and redoes the request as a
// first read, whose verdict (nullopt if absent, CorruptObjectError if torn
// or corrupt) is what the caller sees.
//
// Contract: every byte a range read returns was CRC-checked by that read.
// The seal and the other records were checked when the table was built
// (or, for a writer's table, written by this instance and confirmed by
// the seal read back); damage outside the range after that point is found
// by get or fsck. Sealed objects (hooks, manifests, index) are read and
// checked whole on every read.
//
// Lock order: sizes_mu_, then tables_mu_.
//
// Opening reads nothing. Logical sizes are known for the objects written
// through this instance; a stream it did not write is sized from its own
// records before its first append or seal (a DiskChunk or container
// resumed after a reopen), and only when it exists. The first
// content_bytes(ns) reads and sizes the rest of `ns` once (torn or corrupt
// objects count their salvageable logical prefix) and keeps the running
// total from then on. Verifying is fsck's job, not opening's.
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
  /// Reads nothing: pre-existing objects in `inner` are sized on demand.
  explicit FramedBackend(StorageBackend& inner);

  void put(Ns ns, const std::string& name, ByteSpan data) override;
  void append(Ns ns, const std::string& name, ByteSpan data) override;
  void append_all(Ns ns, const std::string& name,
                  std::span<const ByteSpan> pieces,
                  std::size_t* landed = nullptr) override;
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override;
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override;
  bool exists(Ns ns, const std::string& name) const override;
  bool remove(Ns ns, const std::string& name) override;
  std::uint64_t object_count(Ns ns) const override;
  /// Logical payload bytes (framing overhead excluded). The first call
  /// per namespace reads the objects this instance has not sized.
  std::uint64_t content_bytes(Ns ns) const override;
  std::vector<std::string> list(Ns ns) const override;
  std::vector<LayoutDamage> layout_damage() const override {
    return inner_.layout_damage();
  }
  void seal(Ns ns, const std::string& name) override;

  /// Framed bytes actually stored below — physical − logical is the
  /// framing overhead.
  std::uint64_t physical_bytes(Ns ns) const { return inner_.content_bytes(ns); }

 private:
  using SizeMap = std::unordered_map<std::string, std::uint64_t>;

  /// Logical size of the stored object; 0 when absent.
  std::uint64_t stored_size(Ns ns, const std::string& name) const;
  /// The size entry of `name`, first sized from the stored object when
  /// this instance has neither written it nor sized all of `ns`. Sets
  /// `*created` when the entry is new and no object was stored under
  /// `name`. Called with sizes_mu_ held.
  std::uint64_t& known_size(Ns ns, const std::string& name,
                            bool* created = nullptr) const;

  /// Bound on the framed bytes of one inner append_all: an SD-64 flush
  /// group of 4 KiB chunks fits, and a larger group goes down in several
  /// calls instead of growing the buffer.
  static constexpr std::size_t kBatchBytes = std::size_t{512} << 10;

  /// Frames pieces from `first` into batch_, as many as fit kBatchBytes
  /// (at least one), and points records_ at them; returns the end of the
  /// range framed. Called with sizes_mu_ held.
  std::size_t frame_batch(std::span<const ByteSpan> pieces, std::size_t first);

  /// Bound on the record tables kept for range reads, in records: 8 MiB.
  /// The most recently used table is kept even when it alone is larger.
  static constexpr std::uint64_t kTableCacheRecords = std::uint64_t{1} << 20;

  /// Physical offset of each record header of a stream, then of its seal.
  /// Never changes once published.
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
  /// Drops the published table and any table being built. Called with
  /// sizes_mu_ held.
  void forget_tables(Ns ns, const std::string& name);

  StorageBackend& inner_;

  mutable std::mutex sizes_mu_;
  /// Per namespace, guarded by sizes_mu_: the sizes known so far, their
  /// sum, and whether every stored object has been sized.
  mutable std::array<SizeMap, static_cast<int>(Ns::kCount)> sizes_;
  mutable std::array<std::uint64_t, static_cast<int>(Ns::kCount)> bytes_{};
  mutable std::array<bool, static_cast<int>(Ns::kCount)> sized_{};
  /// Record tables of the DiskChunk streams this instance is writing, by
  /// name; guarded by sizes_mu_. Published into tables_ at seal.
  std::unordered_map<std::string, RecordTable> building_;
  /// The framed records of the inner call in flight and their spans;
  /// guarded by sizes_mu_.
  ByteVec batch_;
  std::vector<ByteSpan> records_;

  mutable std::mutex tables_mu_;
  /// Keyed by namespace byte + name, weighted by record count.
  mutable LruCache<std::string, TablePtr> tables_;  // guarded by tables_mu_
};

}  // namespace mhd
