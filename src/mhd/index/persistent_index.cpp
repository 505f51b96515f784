#include "mhd/index/persistent_index.h"

#include "mhd/index/index_object.h"
#include "mhd/store/framing.h"

namespace mhd {

namespace {

constexpr std::uint32_t kWarmMagic = 0x3157494Du;  // "MIW1"
// Version 2 is the format earlier versions wrote, so their warm lists
// still load.
constexpr std::uint32_t kFormatVersion = 2;

constexpr char kWarmName[] = "warm";
constexpr char kAuxPrefix[] = "aux-";

}  // namespace

bool PersistentIndex::present(const StorageBackend& backend) {
  return backend.exists(Ns::kIndex, kWarmName);
}

void PersistentIndex::save_warm_list(const std::vector<Digest>& names) {
  index_object::put_warm_list(backend_, kWarmName, kWarmMagic,
                              kFormatVersion, names);
}

std::vector<Digest> PersistentIndex::load_warm_list() const {
  return index_object::get_warm_list(backend_, kWarmName, kWarmMagic,
                                     kFormatVersion);
}

void PersistentIndex::save_aux(const std::string& name, ByteSpan payload) {
  backend_.put(Ns::kIndex, kAuxPrefix + name, framing::seal_object(payload));
}

std::optional<ByteVec> PersistentIndex::load_aux(
    const std::string& name) const {
  return index_object::get_unsealed(backend_, kAuxPrefix + name);
}

}  // namespace mhd
