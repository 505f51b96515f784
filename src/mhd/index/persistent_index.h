// PersistentIndex — the disk tier of the FingerprintIndex (--index-impl=disk):
// MemIndex's in-RAM map plus the two things worth keeping across a restart.
//
// Why only those two. ManifestCache keeps the fingerprint index an exact
// mirror of the resident manifests (core/manifest_cache.h): a hit whose
// manifest is not resident is erased and answers "absent", and a warm
// reopen re-puts every entry of every warm-listed manifest. So a stored
// copy of the map never decides a lookup; what decides the reopened run is
// which manifests were resident. The tier persists exactly that, under
// Ns::kIndex, each object sealed with framing::seal_object (self-verifying
// on a bare backend; under FramedBackend the outer frame verifies again):
//
//   warm         ManifestCache residency list, MRU first (magic MIW1,
//                format version 2)
//   aux-<name>   engine sidecar blobs (FBC's frequency sketch)
//
// Both are advisory: a missing or damaged object reads back as empty, so
// the next run starts cold — a missed duplicate at worst, never a wrong
// restore. fsck only checks that each object is sealed (repair deletes a
// damaged one) and gc deletes them all, so the next open starts cold.
//
// Repositories written by earlier versions also hold `meta`, `shard-*`,
// `journal-*` and `bloom` objects (a bucket-page copy of the map). The
// engine ignores them, fsck accepts them while they are sealed, and gc
// removes them with the rest of the tier; `warm` kept its format, so such
// a repository warm-loads the same list.
//
// Not thread-safe, like MemIndex: each engine owns its index, and the
// daemon gives every tenant its own engine behind the tenant's writer lock.
#pragma once

#include <string>
#include <vector>

#include "mhd/index/mem_index.h"
#include "mhd/store/backend.h"

namespace mhd {

class PersistentIndex final : public MemIndex {
 public:
  explicit PersistentIndex(StorageBackend& backend) : backend_(backend) {}

  /// True when `backend` holds a warm list to resume from.
  static bool present(const StorageBackend& backend);

  const char* impl_name() const override { return "disk"; }

  void save_warm_list(const std::vector<Digest>& names) override;
  std::vector<Digest> load_warm_list() const override;
  void save_aux(const std::string& name, ByteSpan payload) override;
  std::optional<ByteVec> load_aux(const std::string& name) const override;

  /// Inert: the tier has no page cache and never compacts, so both read 0.
  /// They stay only because the benchmark harness still reads them; the
  /// next change to the benchmark removes both uses and these accessors.
  std::uint64_t page_cache_ram_high_water() const { return 0; }
  std::uint64_t compaction_count() const { return 0; }

 private:
  StorageBackend& backend_;
};

}  // namespace mhd
