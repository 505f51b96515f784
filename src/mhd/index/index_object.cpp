#include "mhd/index/index_object.h"

#include <algorithm>

#include "mhd/store/framing.h"
#include "mhd/store/store_errors.h"

namespace mhd::index_object {

std::optional<ByteVec> unseal_all(ByteSpan framed) {
  auto payload = framing::unseal_object(framed);
  if (!payload) return std::nullopt;
  while (auto inner = framing::unseal_object(*payload)) payload = inner;
  return payload;
}

std::optional<ByteVec> get_unsealed(const StorageBackend& backend,
                                    const std::string& name) {
  std::optional<ByteVec> framed;
  try {
    framed = backend.get(Ns::kIndex, name);
  } catch (const StoreError&) {
    return std::nullopt;
  }
  return framed ? unseal_all(*framed) : std::nullopt;
}

void put_warm_list(StorageBackend& backend, const std::string& name,
                   std::uint32_t magic, std::uint32_t version,
                   const std::vector<Digest>& names) {
  ByteVec payload;
  payload.reserve(16 + names.size() * Digest::kSize);
  append_le(payload, magic);
  append_le(payload, version);
  append_le(payload, static_cast<std::uint64_t>(names.size()));
  for (const auto& digest : names) append(payload, digest.span());
  backend.put(Ns::kIndex, name, framing::seal_object(payload));
}

std::vector<Digest> get_warm_list(const StorageBackend& backend,
                                  const std::string& name,
                                  std::uint32_t magic, std::uint32_t version) {
  const auto payload = get_unsealed(backend, name);
  if (!payload) return {};
  constexpr std::size_t kHeader = 4 + 4 + 8;
  if (payload->size() < kHeader) return {};
  if (load_le<std::uint32_t>(payload->data()) != magic) return {};
  if (load_le<std::uint32_t>(payload->data() + 4) != version) return {};
  const auto count = load_le<std::uint64_t>(payload->data() + 8);
  if (payload->size() != kHeader + count * Digest::kSize) return {};
  std::vector<Digest> names(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Byte* p = payload->data() + kHeader + i * Digest::kSize;
    std::copy(p, p + Digest::kSize, names[i].bytes.begin());
  }
  return names;
}

}  // namespace mhd::index_object
