// Real-filesystem storage backend (one directory per namespace, one file
// per object) — the honest end-to-end path used by the dedup_cli example
// and the integration tests. Mirrors the paper's user-space Ext3 prototype.
#pragma once

#include <array>
#include <filesystem>

#include "mhd/store/backend.h"

namespace mhd {

class FileBackend final : public StorageBackend {
 public:
  /// Creates <root>/<namespace>/ directories as needed.
  explicit FileBackend(std::filesystem::path root);

  void put(Ns ns, const std::string& name, ByteSpan data) override;
  void append(Ns ns, const std::string& name, ByteSpan data) override;
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override;
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override;
  bool exists(Ns ns, const std::string& name) const override;
  bool remove(Ns ns, const std::string& name) override;
  std::uint64_t object_count(Ns ns) const override;
  std::uint64_t content_bytes(Ns ns) const override;
  std::vector<std::string> list(Ns ns) const override;

  const std::filesystem::path& root() const { return root_; }

 private:
  std::filesystem::path path_for(Ns ns, const std::string& name) const;

  std::filesystem::path root_;
  // Cached counters so object_count/content_bytes stay O(1); kept in sync
  // by the mutating operations (the backend owns its directories).
  std::array<std::uint64_t, static_cast<int>(Ns::kCount)> counts_{};
  std::array<std::uint64_t, static_cast<int>(Ns::kCount)> bytes_{};
};

/// Framing is a property of a FileBackend repository, recorded by a marker
/// file in its root: `dedup_cli store --framed` writes it, and every later
/// command that finds it reads through FramedBackend. fsck checks framing,
/// so it must not run on a repository without the marker.
bool has_framed_marker(const std::filesystem::path& root);
void write_framed_marker(const std::filesystem::path& root);

}  // namespace mhd
