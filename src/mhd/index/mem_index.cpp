#include "mhd/index/mem_index.h"

#include <algorithm>

namespace mhd {

std::optional<Digest> MemIndex::lookup(const Digest& fp) {
  const auto it = map_.find(fp);
  if (it == map_.end()) return std::nullopt;
  return it->second;
}

void MemIndex::put(const Digest& fp, const Digest& manifest) {
  map_.insert_or_assign(fp, manifest);
  high_water_ = std::max(high_water_, ram_bytes());
}

bool MemIndex::erase(const Digest& fp) { return map_.erase(fp) > 0; }

}  // namespace mhd
