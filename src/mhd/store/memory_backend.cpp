#include "mhd/store/memory_backend.h"

#include <algorithm>

namespace mhd {

const char* ns_name(Ns ns) {
  switch (ns) {
    case Ns::kDiskChunk: return "diskchunks";
    case Ns::kHook: return "hooks";
    case Ns::kManifest: return "manifests";
    case Ns::kFileManifest: return "filemanifests";
    case Ns::kIndex: return "index";
    case Ns::kContainer: return "containers";
    case Ns::kChunkMap: return "chunkmaps";
    case Ns::kCount: break;
  }
  return "?";
}

NsLayout ns_layout(Ns ns) {
  switch (ns) {
    case Ns::kDiskChunk:
    case Ns::kContainer: return NsLayout::kStream;
    case Ns::kHook:
    case Ns::kManifest:
    case Ns::kFileManifest:
    case Ns::kChunkMap: return NsLayout::kPacked;
    case Ns::kIndex:
    case Ns::kCount: break;
  }
  return NsLayout::kLoose;
}

std::string to_string(const LayoutDamage& d) {
  return std::string(ns_name(d.ns)) + "/" + d.file + "@" +
         std::to_string(d.offset) + " (" + std::to_string(d.length) +
         " bytes)";
}

void StorageBackend::append_all(Ns ns, const std::string& name,
                                std::span<const ByteSpan> pieces,
                                std::size_t* landed) {
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    if (landed != nullptr) *landed = i;
    append(ns, name, pieces[i]);
  }
  if (landed != nullptr) *landed = pieces.size();
}

std::uint64_t StorageBackend::total_objects() const {
  std::uint64_t total = 0;
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    total += object_count(static_cast<Ns>(i));
  }
  return total;
}

std::uint64_t StorageBackend::total_content_bytes() const {
  std::uint64_t total = 0;
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    total += content_bytes(static_cast<Ns>(i));
  }
  return total;
}

std::uint64_t StorageBackend::stored_bytes_with_inodes() const {
  return total_content_bytes() + total_objects() * kInodeBytes;
}

void MemoryBackend::put(Ns ns, const std::string& name, ByteSpan data) {
  auto& map = space(ns);
  auto& bytes = bytes_[static_cast<int>(ns)];
  auto it = map.find(name);
  if (it != map.end()) {
    bytes -= it->second.size();
    it->second.assign(data.begin(), data.end());
  } else {
    map.emplace(name, to_vec(data));
  }
  bytes += data.size();
}

void MemoryBackend::append(Ns ns, const std::string& name, ByteSpan data) {
  auto& map = space(ns);
  mhd::append(map[name], data);
  bytes_[static_cast<int>(ns)] += data.size();
}

std::optional<ByteVec> MemoryBackend::get(Ns ns, const std::string& name) const {
  const auto& map = space(ns);
  const auto it = map.find(name);
  if (it == map.end()) return std::nullopt;
  return it->second;
}

std::optional<ByteVec> MemoryBackend::get_range(Ns ns, const std::string& name,
                                                std::uint64_t offset,
                                                std::uint64_t length) const {
  const auto& map = space(ns);
  const auto it = map.find(name);
  if (it == map.end()) return std::nullopt;
  const ByteVec& obj = it->second;
  // Checked as two comparisons: `offset + length` can wrap u64.
  if (offset > obj.size() || length > obj.size() - offset) return std::nullopt;
  return ByteVec(obj.begin() + static_cast<std::ptrdiff_t>(offset),
                 obj.begin() + static_cast<std::ptrdiff_t>(offset + length));
}

bool MemoryBackend::exists(Ns ns, const std::string& name) const {
  return space(ns).count(name) > 0;
}

bool MemoryBackend::remove(Ns ns, const std::string& name) {
  auto& map = space(ns);
  auto it = map.find(name);
  if (it == map.end()) return false;
  bytes_[static_cast<int>(ns)] -= it->second.size();
  map.erase(it);
  return true;
}

std::uint64_t MemoryBackend::object_count(Ns ns) const {
  return space(ns).size();
}

std::uint64_t MemoryBackend::content_bytes(Ns ns) const {
  return bytes_[static_cast<int>(ns)];
}

std::vector<std::string> MemoryBackend::list(Ns ns) const {
  std::vector<std::string> names;
  names.reserve(space(ns).size());
  for (const auto& [name, _] : space(ns)) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace mhd
