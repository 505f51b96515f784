// PersistentIndex unit tests: the disk tier's own objects, independent of
// any engine. The tier is MemIndex's map plus a sealed warm list and aux
// blobs; engine-level equivalence (warm restart, GC interaction, objects
// written by earlier versions) lives in warm_restart_test.cpp.
#include "mhd/index/persistent_index.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mhd/hash/sha1.h"
#include "mhd/index/mem_index.h"
#include "mhd/index/sampled_index.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/memory_backend.h"

namespace mhd {
namespace {

Digest digest_of(std::uint64_t n) {
  ByteVec v;
  append_le<std::uint64_t>(v, n);
  return Sha1::hash(v);
}

Digest manifest_of(std::uint64_t n) { return digest_of(n * 31 + 7); }

TEST(PersistentIndex, PutLookupEraseRoundTrip) {
  MemoryBackend backend;
  PersistentIndex index(backend);
  EXPECT_EQ(index.entry_count(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    index.put(digest_of(i), manifest_of(i));
  }
  EXPECT_EQ(index.entry_count(), 100u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_EQ(index.lookup(digest_of(i)), manifest_of(i)) << i;
  }
  EXPECT_FALSE(index.lookup(digest_of(5000)).has_value());

  EXPECT_TRUE(index.erase(digest_of(7)));
  EXPECT_FALSE(index.erase(digest_of(7)));
  EXPECT_FALSE(index.lookup(digest_of(7)).has_value());
  EXPECT_EQ(index.entry_count(), 99u);
  // The map lives in RAM only: no put or erase reached the backend.
  EXPECT_EQ(backend.object_count(Ns::kIndex), 0u);
}

TEST(PersistentIndex, PresenceIsDetectedAfterFlush) {
  MemoryBackend backend;
  EXPECT_FALSE(PersistentIndex::present(backend));
  {
    PersistentIndex index(backend);
    // Opening writes nothing: there is no warm list to resume from yet.
    EXPECT_FALSE(PersistentIndex::present(backend));
    index.save_warm_list({digest_of(1)});
    index.flush();
  }
  EXPECT_TRUE(PersistentIndex::present(backend));
}

TEST(PersistentIndex, WarmListAndAuxBlobsRoundTrip) {
  // Every tier through the FingerprintIndex interface: the persistent
  // tiers round-trip the warm list and aux blobs across a reopen, MemIndex
  // keeps nothing, and only the sampled tier names champions.
  const std::vector<Digest> names = {digest_of(1), digest_of(2), digest_of(3)};
  const ByteVec sketch = to_vec(as_bytes("frequency-sketch-payload"));
  const Digest hook = digest_of(9);
  SampledIndexConfig every_fp_is_a_hook;
  every_fp_is_a_hook.sample_bits = 0;
  using Open = std::function<std::unique_ptr<FingerprintIndex>(StorageBackend&)>;
  const std::vector<Open> tiers = {
      [](StorageBackend&) { return std::make_unique<MemIndex>(); },
      [](StorageBackend& b) { return std::make_unique<PersistentIndex>(b); },
      [&](StorageBackend& b) {
        return std::make_unique<SampledIndex>(b, every_fp_is_a_hook);
      },
  };
  for (const Open& open : tiers) {
    MemoryBackend backend;
    std::unique_ptr<FingerprintIndex> index = open(backend);
    const std::string tier = index->impl_name();
    SCOPED_TRACE(tier);
    const bool keeps = tier != "mem";
    index->put(hook, names[0]);
    index->save_warm_list(names);
    index->save_aux("fbc-frequency", sketch);
    index->flush();
    if (keeps) {  // prove persistence on a reopened index
      index.reset();
      index = open(backend);
    }
    EXPECT_EQ(index->load_warm_list(), keeps ? names : std::vector<Digest>{});
    const auto aux = index->load_aux("fbc-frequency");
    ASSERT_EQ(aux.has_value(), keeps);
    if (aux) {
      EXPECT_TRUE(equal(*aux, sketch));
    }
    EXPECT_FALSE(index->load_aux("never-written").has_value());
    EXPECT_EQ(index->champions_for(hook),
              tier == "sampled" ? std::vector<Digest>{names[0]}
                                : std::vector<Digest>{});
  }
}

TEST(PersistentIndex, WorksIdenticallyUnderFramedBackend) {
  const std::vector<Digest> names = {digest_of(4), digest_of(5)};
  const ByteVec blob = to_vec(as_bytes("aux-payload"));
  MemoryBackend raw;
  {
    FramedBackend framed(raw);
    PersistentIndex index(framed);
    index.save_warm_list(names);
    index.save_aux("sketch", blob);
  }
  // Through a reopened FramedBackend, and straight off the raw layer that
  // fsck reads: the reader peels both seals.
  FramedBackend framed(raw);
  for (StorageBackend* view : {static_cast<StorageBackend*>(&framed),
                               static_cast<StorageBackend*>(&raw)}) {
    PersistentIndex reopened(*view);
    EXPECT_EQ(reopened.load_warm_list(), names);
    const auto aux = reopened.load_aux("sketch");
    ASSERT_TRUE(aux.has_value());
    EXPECT_TRUE(equal(*aux, blob));
  }
}

TEST(PersistentIndex, DamagedObjectsReadBackEmpty) {
  // A torn or bit-flipped warm list or aux blob costs a cold start (missed
  // duplicates), never an error or a wrong list.
  const std::vector<Digest> names = {digest_of(1), digest_of(2)};
  for (const bool tear : {true, false}) {
    SCOPED_TRACE(tear ? "torn" : "bit flip");
    MemoryBackend backend;
    PersistentIndex index(backend);
    index.save_warm_list(names);
    index.save_aux("sketch", as_bytes("payload"));
    for (const std::string name : {"warm", "aux-sketch"}) {
      auto bytes = backend.get(Ns::kIndex, name);
      ASSERT_TRUE(bytes.has_value());
      if (tear) {
        bytes->resize(bytes->size() / 2);
      } else {
        (*bytes)[bytes->size() / 2] ^= Byte{0x40};
      }
      backend.put(Ns::kIndex, name, *bytes);
    }
    EXPECT_TRUE(index.load_warm_list().empty());
    EXPECT_FALSE(index.load_aux("sketch").has_value());
  }
}

}  // namespace
}  // namespace mhd
