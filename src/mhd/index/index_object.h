// Sealed index objects — the reader and the warm-list codec both persisted
// index tiers (index/persistent_index.h, index/sampled_index.h) use under
// Ns::kIndex.
//
// Every index object is sealed with framing::seal_object, so it verifies
// itself on a bare backend; under FramedBackend the stored bytes carry a
// second seal, which the reader peels too. A warm list (the
// ManifestCache residency list, MRU first) is
//     [magic u32][version u32][count u64][count x 20-byte digest]
// with the tier's own magic and version.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mhd/hash/digest.h"
#include "mhd/store/backend.h"

namespace mhd::index_object {

/// The payload under every seal of `framed`; nullopt when it is not
/// sealed or a CRC mismatches. A bare payload can't unseal by accident:
/// its tail would have to be a valid MTR1 trailer with a matching CRC.
std::optional<ByteVec> unseal_all(ByteSpan framed);

/// Reads and unseals index object `name`; nullopt when absent, unreadable
/// or damaged.
std::optional<ByteVec> get_unsealed(const StorageBackend& backend,
                                    const std::string& name);

/// Writes `names` as the sealed warm list `name`.
void put_warm_list(StorageBackend& backend, const std::string& name,
                   std::uint32_t magic, std::uint32_t version,
                   const std::vector<Digest>& names);

/// The warm list stored as `name`; empty when it is absent, damaged, or
/// of another magic or version.
std::vector<Digest> get_warm_list(const StorageBackend& backend,
                                  const std::string& name,
                                  std::uint32_t magic, std::uint32_t version);

}  // namespace mhd::index_object
