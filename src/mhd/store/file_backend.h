// Real-filesystem storage backend (one directory per namespace, one file
// per object) — the honest end-to-end path used by the dedup_cli example
// and the integration tests. Mirrors the paper's user-space Ext3 prototype.
#pragma once

#include <filesystem>

#include "mhd/store/backend.h"

namespace mhd {

class FileBackend final : public StorageBackend {
 public:
  /// Creates <root>/<namespace>/ directories as needed; lists, reads and
  /// stats no object.
  explicit FileBackend(std::filesystem::path root);

  /// Removes the `.tmp` files interrupted atomic puts left behind. Lists
  /// every namespace directory, so it runs where the repository is walked
  /// anyway (gc, fsck repair, serve --fsck-on-start), not at open. Until
  /// then a stale temp is harmless: list, object_count and content_bytes
  /// skip it, and a put of the same name truncates it.
  void sweep_temps();

  void put(Ns ns, const std::string& name, ByteSpan data) override;
  void append(Ns ns, const std::string& name, ByteSpan data) override;
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override;
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override;
  bool exists(Ns ns, const std::string& name) const override;
  bool remove(Ns ns, const std::string& name) override;
  /// Both walk the namespace directory on every call (content_bytes also
  /// stats each file): stats paths, not hot paths.
  std::uint64_t object_count(Ns ns) const override;
  std::uint64_t content_bytes(Ns ns) const override;
  std::vector<std::string> list(Ns ns) const override;

  const std::filesystem::path& root() const { return root_; }

 private:
  std::filesystem::path path_for(Ns ns, const std::string& name) const;

  std::filesystem::path root_;
};

/// Atomic replace: writes `<path>.tmp`, then renames it over `path`, so a
/// crash leaves the old file or the new one, never a mix
/// (FileBackend::sweep_temps removes a stale .tmp). Throws BackendIoError.
void write_file_atomically(const std::filesystem::path& path, ByteSpan data);

}  // namespace mhd
