#include "mhd/index/persistent_index.h"

#include <algorithm>

#include "mhd/store/framing.h"
#include "mhd/store/store_errors.h"

namespace mhd {

namespace {

constexpr std::uint32_t kWarmMagic = 0x3157494Du;  // "MIW1"
// Version 2 is the format earlier versions wrote, so their warm lists
// still load.
constexpr std::uint32_t kFormatVersion = 2;

constexpr char kWarmName[] = "warm";
constexpr char kAuxPrefix[] = "aux-";

/// Reads and unseals one index object; nullopt when absent, unreadable or
/// damaged. Peels every seal, so it reads the same payload through a
/// FramedBackend (whose own frame the stored bytes also carry) and on a
/// bare backend. A bare payload can't unseal by accident: its tail would
/// have to be a valid MTR1 trailer with a matching CRC.
std::optional<ByteVec> get_unsealed(const StorageBackend& backend,
                                    const std::string& name) {
  std::optional<ByteVec> framed;
  try {
    framed = backend.get(Ns::kIndex, name);
  } catch (const StoreError&) {
    return std::nullopt;
  }
  if (!framed) return std::nullopt;
  auto payload = framing::unseal_object(*framed);
  if (!payload) return std::nullopt;
  while (auto inner = framing::unseal_object(*payload)) payload = inner;
  return payload;
}

}  // namespace

bool PersistentIndex::present(const StorageBackend& backend) {
  return backend.exists(Ns::kIndex, kWarmName);
}

void PersistentIndex::save_warm_list(const std::vector<Digest>& names) {
  ByteVec payload;
  payload.reserve(16 + names.size() * Digest::kSize);
  append_le(payload, kWarmMagic);
  append_le(payload, kFormatVersion);
  append_le(payload, static_cast<std::uint64_t>(names.size()));
  for (const auto& name : names) append(payload, name.span());
  backend_.put(Ns::kIndex, kWarmName, framing::seal_object(payload));
}

std::vector<Digest> PersistentIndex::load_warm_list() const {
  const auto payload = get_unsealed(backend_, kWarmName);
  if (!payload) return {};
  constexpr std::size_t kHeader = 4 + 4 + 8;
  if (payload->size() < kHeader) return {};
  if (load_le<std::uint32_t>(payload->data()) != kWarmMagic) return {};
  if (load_le<std::uint32_t>(payload->data() + 4) != kFormatVersion) return {};
  const auto count = load_le<std::uint64_t>(payload->data() + 8);
  if (payload->size() != kHeader + count * Digest::kSize) return {};
  std::vector<Digest> names(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Byte* p = payload->data() + kHeader + i * Digest::kSize;
    std::copy(p, p + Digest::kSize, names[i].bytes.begin());
  }
  return names;
}

void PersistentIndex::save_aux(const std::string& name, ByteSpan payload) {
  backend_.put(Ns::kIndex, kAuxPrefix + name, framing::seal_object(payload));
}

std::optional<ByteVec> PersistentIndex::load_aux(
    const std::string& name) const {
  return get_unsealed(backend_, kAuxPrefix + name);
}

}  // namespace mhd
