#include "mhd/format/manifest.h"

namespace mhd {

std::optional<std::size_t> Manifest::find(const Digest& hash) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].hash == hash) return i;
  }
  return std::nullopt;
}

std::uint64_t Manifest::byte_size(bool with_hook_flags) const {
  const std::uint64_t per_entry =
      ManifestEntry::kBaseBytes +
      (with_hook_flags ? ManifestEntry::kHookFlagBytes : 0);
  return entries_.size() * per_entry;
}

ByteVec Manifest::serialize(bool with_hook_flags) const {
  ByteVec out;
  out.reserve(25 + entries_.size() * 37);
  append(out, chunk_name_.span());
  out.push_back(with_hook_flags ? 1 : 0);
  append_le<std::uint32_t>(out, static_cast<std::uint32_t>(entries_.size()));
  for (const auto& e : entries_) {
    append(out, e.hash.span());
    append_le<std::uint64_t>(out, e.offset);
    append_le<std::uint32_t>(out, e.size);
    append_le<std::uint32_t>(out, e.chunk_count);
    if (with_hook_flags) out.push_back(e.is_hook ? 1 : 0);
  }
  return out;
}

std::optional<Manifest> Manifest::deserialize(ByteSpan data) {
  if (data.size() < 25) return std::nullopt;
  Manifest m;
  std::copy(data.begin(), data.begin() + Digest::kSize, m.chunk_name_.bytes.begin());
  const bool with_hook_flags = data[Digest::kSize] != 0;
  const std::uint32_t count = load_le<std::uint32_t>(data.data() + Digest::kSize + 1);
  const std::size_t entry_bytes = 36 + (with_hook_flags ? 1 : 0);
  std::size_t pos = Digest::kSize + 5;
  if (data.size() < pos + static_cast<std::size_t>(count) * entry_bytes) {
    return std::nullopt;
  }
  m.entries_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    ManifestEntry e;
    std::copy(data.begin() + static_cast<std::ptrdiff_t>(pos),
              data.begin() + static_cast<std::ptrdiff_t>(pos + Digest::kSize),
              e.hash.bytes.begin());
    pos += Digest::kSize;
    e.offset = load_le<std::uint64_t>(data.data() + pos);
    pos += 8;
    e.size = load_le<std::uint32_t>(data.data() + pos);
    pos += 4;
    e.chunk_count = load_le<std::uint32_t>(data.data() + pos);
    pos += 4;
    if (with_hook_flags) {
      e.is_hook = data[pos] != 0;
      pos += 1;
    }
    m.entries_.push_back(e);
  }
  return m;
}

bool Manifest::regions_contiguous(std::uint64_t expected_start) const {
  std::uint64_t cursor = expected_start;
  for (const auto& e : entries_) {
    if (e.offset != cursor) return false;
    cursor += e.size;
  }
  return true;
}

bool Manifest::tiles(std::uint64_t length) const {
  std::uint64_t cursor = 0;
  for (const auto& e : entries_) {
    if (e.offset != cursor) return false;
    cursor += e.size;
  }
  return cursor == length;
}

}  // namespace mhd
