// Real-filesystem storage backend — the honest end-to-end path used by
// dedup_cli, the daemon and the integration tests. One directory per
// namespace; what lies in it depends on the namespace's layout (backend.h):
//
//  * stream and loose namespaces (diskchunks, containers, index): one file
//    per object, as in the paper's user-space Ext3 prototype;
//  * packed namespaces (hooks, manifests, filemanifests, chunkmaps): each
//    writing instance appends records to its own pack file
//    `<ns>/<seq>.pack`, so storing an object costs an append, not a file
//    creation. A file of any other name there is a loose object, which
//    every repository written before packs has; it is read as before.
//
// A pack record is a 24-byte header, the name, then the payload:
//
//   magic u32 | kind u8 (1 put, 2 tombstone) | 0 u8 | name length u16 |
//   payload length u64 | CRC32C of the name u32 | CRC32C of bytes 0..19 u32
//
// The pack checks structure only; payload integrity is FramedBackend's, as
// for a loose file. Packs are scanned in `seq` order and the later record
// of a name wins; a tombstone erases the name, and any pack record
// overrides a loose file of the same name. DESIGN.md "Packed namespaces"
// has the visibility rules, torn tails against damage and the fold.
#pragma once

#include <array>
#include <filesystem>
#include <memory>

#include "mhd/store/backend.h"

namespace mhd {

class FileBackend final : public StorageBackend {
 public:
  /// Bytes of a pack record's header.
  static constexpr std::size_t kRecordHeaderBytes = 24;

  /// Creates <root>/<namespace>/ directories as needed; lists, reads and
  /// stats no object: a packed namespace is read on this instance's first
  /// access to it.
  explicit FileBackend(std::filesystem::path root);
  ~FileBackend() override;
  FileBackend(FileBackend&&) noexcept;
  FileBackend& operator=(FileBackend&&) noexcept;

  /// Offline tidy-up, run where the repository is walked anyway (gc, fsck
  /// repair, serve --fsck-on-start) by the holder of store.lock. Removes
  /// the `.tmp` files interrupted atomic puts left behind, truncates torn
  /// pack tails, and folds every packed namespace that has dead records,
  /// more than one pack, damage or loose files into one new pack: damaged
  /// regions are saved under <root>/quarantine/<ns>/ first, and the old
  /// packs and loose files are unlinked after it (DESIGN.md shows that a
  /// kill after any step leaves the same live set). Until then a stale
  /// temp is harmless: list, object_count and content_bytes skip it, and
  /// a put of the same name truncates it. Returns the damaged regions it
  /// quarantined, which no fsck report shows afterwards.
  std::vector<LayoutDamage> sweep_temps();

  void put(Ns ns, const std::string& name, ByteSpan data) override;
  void append(Ns ns, const std::string& name, ByteSpan data) override;
  /// A stream batch is one open and one vectored write; a packed
  /// namespace takes one append per piece.
  void append_all(Ns ns, const std::string& name,
                  std::span<const ByteSpan> pieces,
                  std::size_t* landed = nullptr) override;
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override;
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override;
  bool exists(Ns ns, const std::string& name) const override;
  bool remove(Ns ns, const std::string& name) override;
  /// Stats paths, not hot paths: on a stream or loose namespace both walk
  /// the directory (content_bytes also stats each file); on a packed one
  /// they first read what other instances appended since the last look.
  std::uint64_t object_count(Ns ns) const override;
  std::uint64_t content_bytes(Ns ns) const override;
  std::vector<std::string> list(Ns ns) const override;
  /// Pack regions whose record headers fail their check, after reading
  /// every packed namespace.
  std::vector<LayoutDamage> layout_damage() const override;

  const std::filesystem::path& root() const { return root_; }

 private:
  class Packs;  ///< one packed namespace: its packs and name map

  std::filesystem::path path_for(Ns ns, const std::string& name) const;
  Packs* packs(Ns ns) const;

  std::filesystem::path root_;
  std::array<std::unique_ptr<Packs>, static_cast<int>(Ns::kCount)> packs_;
};

/// Atomic replace: writes `<path>.tmp`, then renames it over `path`, so a
/// crash leaves the old file or the new one, never a mix
/// (FileBackend::sweep_temps removes a stale .tmp). Throws BackendIoError.
void write_file_atomically(const std::filesystem::path& path, ByteSpan data);

}  // namespace mhd
