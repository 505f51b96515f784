// PersistentIndex unit tests: durability of the on-disk fingerprint index
// itself, independent of any engine. Engines-level equivalence (warm
// restart, GC interaction) lives in warm_restart_test.cpp.
#include "mhd/index/persistent_index.h"

#include <algorithm>
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
#include "mhd/util/random.h"

namespace mhd {
namespace {

Digest digest_of(std::uint64_t n) {
  ByteVec v;
  append_le<std::uint64_t>(v, n);
  return Sha1::hash(v);
}

IndexEntry entry_of(std::uint64_t n) {
  return IndexEntry{digest_of(n * 31 + 7), n * 13};
}

PersistentIndexConfig small_config() {
  PersistentIndexConfig cfg;
  cfg.shards = 8;
  cfg.expected_keys = 4096;  // keeps the bloom small in tests
  cfg.journal_batch = 4;
  cfg.compact_threshold = 1 << 20;  // compaction only when asked
  return cfg;
}

void put_n(PersistentIndex& index, std::uint64_t n, std::uint64_t from = 0) {
  for (std::uint64_t i = from; i < from + n; ++i) {
    index.put(digest_of(i), entry_of(i));
  }
}

void expect_all(PersistentIndex& index, std::uint64_t n,
                std::uint64_t from = 0) {
  for (std::uint64_t i = from; i < from + n; ++i) {
    const auto hit = index.lookup(digest_of(i));
    ASSERT_TRUE(hit.has_value()) << "key " << i;
    EXPECT_EQ(hit->manifest, entry_of(i).manifest) << "key " << i;
    EXPECT_EQ(hit->offset, entry_of(i).offset) << "key " << i;
  }
}

TEST(PersistentIndex, PutLookupEraseRoundTrip) {
  MemoryBackend backend;
  PersistentIndex index(backend, small_config());
  EXPECT_EQ(index.entry_count(), 0u);
  put_n(index, 100);
  EXPECT_EQ(index.entry_count(), 100u);
  expect_all(index, 100);
  EXPECT_FALSE(index.lookup(digest_of(5000)).has_value());

  EXPECT_TRUE(index.erase(digest_of(7)));
  EXPECT_FALSE(index.erase(digest_of(7)));
  EXPECT_FALSE(index.lookup(digest_of(7)).has_value());
  EXPECT_EQ(index.entry_count(), 99u);
}

TEST(PersistentIndex, MaybeContainsHasNoFalseNegatives) {
  MemoryBackend backend;
  PersistentIndex index(backend, small_config());
  put_n(index, 500);
  for (std::uint64_t i = 0; i < 500; ++i) {
    EXPECT_TRUE(index.maybe_contains(digest_of(i))) << i;
  }
}

TEST(PersistentIndex, PresenceIsDetectedAfterFlush) {
  MemoryBackend backend;
  EXPECT_FALSE(PersistentIndex::present(backend));
  {
    PersistentIndex index(backend, small_config());
    // Even an empty index writes its meta, making the choice sticky.
    EXPECT_TRUE(PersistentIndex::present(backend));
  }
  EXPECT_TRUE(PersistentIndex::present(backend));
}

TEST(PersistentIndex, ReopenReplaysJournal) {
  MemoryBackend backend;
  {
    PersistentIndex index(backend, small_config());
    put_n(index, 50);
    index.erase(digest_of(3));
    index.flush();
    EXPECT_GT(index.journal_segment_count(), 0u);
    EXPECT_EQ(index.compaction_count(), 0u);
  }
  PersistentIndex reopened(backend, small_config());
  EXPECT_EQ(reopened.entry_count(), 49u);
  expect_all(reopened, 2);  // keys 0,1
  EXPECT_FALSE(reopened.lookup(digest_of(3)).has_value());
  expect_all(reopened, 46, 4);
}

TEST(PersistentIndex, ReopenAfterCompactionReadsPages) {
  MemoryBackend backend;
  {
    PersistentIndex index(backend, small_config());
    put_n(index, 300);
    index.compact();
    EXPECT_EQ(index.compaction_count(), 1u);
    put_n(index, 40, 300);  // a post-compaction journal tail on top
    index.flush();
  }
  PersistentIndex reopened(backend, small_config());
  EXPECT_EQ(reopened.entry_count(), 340u);
  expect_all(reopened, 340);
}

TEST(PersistentIndex, RepeatedCompactionsSupersedeGenerations) {
  MemoryBackend backend;
  PersistentIndex index(backend, small_config());
  for (int round = 0; round < 4; ++round) {
    put_n(index, 50, static_cast<std::uint64_t>(round) * 50);
    index.compact();
  }
  EXPECT_EQ(index.compaction_count(), 4u);
  EXPECT_EQ(index.entry_count(), 200u);
  expect_all(index, 200);
  // Old generations and consumed journal segments are removed: at most
  // one live page per shard plus meta/bloom/warm-style singletons.
  EXPECT_LE(backend.object_count(Ns::kIndex), 8u + 3u);
}

TEST(PersistentIndex, NoOpPutsDoNotGrowTheJournal) {
  MemoryBackend backend;
  PersistentIndex index(backend, small_config());
  put_n(index, 20);
  index.flush();
  const auto segments = index.journal_segment_count();
  put_n(index, 20);  // identical (fp, entry) pairs: pure no-ops
  index.flush();
  EXPECT_EQ(index.journal_segment_count(), segments);
  EXPECT_EQ(index.entry_count(), 20u);
}

TEST(PersistentIndex, TornJournalTailIsTruncatedNotFatal) {
  MemoryBackend backend;
  std::vector<std::string> segments;
  {
    PersistentIndex index(backend, small_config());
    put_n(index, 48);  // batch=4 -> 12 journal segments
    index.flush();
    for (const auto& name : backend.list(Ns::kIndex)) {
      if (name.rfind("journal-", 0) == 0) segments.push_back(name);
    }
    ASSERT_GE(segments.size(), 3u);
  }
  // Tear the second-to-last segment in half, below all framing.
  std::sort(segments.begin(), segments.end(),
            [](const std::string& a, const std::string& b) {
              return std::stoull(a.substr(8)) < std::stoull(b.substr(8));
            });
  const std::string& torn = segments[segments.size() - 2];
  const auto bytes = backend.get(Ns::kIndex, torn);
  ASSERT_TRUE(bytes.has_value());
  backend.put(Ns::kIndex, torn,
              ByteSpan{bytes->data(), bytes->size() / 2});

  PersistentIndex reopened(backend, small_config());
  // Everything before the tear replayed; the tear and all later segments
  // were dropped (a journal suffix, never a hole in the middle).
  EXPECT_EQ(reopened.entry_count(), (segments.size() - 2) * 4);
  expect_all(reopened, reopened.entry_count());
  // The truncated tail is advisory loss only: new puts go on cleanly and
  // survive the next reopen.
  put_n(reopened, 48, 1000);
  reopened.flush();
  PersistentIndex again(backend, small_config());
  expect_all(again, 48, 1000);
}

TEST(PersistentIndex, CorruptBucketPageDegradesToMissedDuplicates) {
  MemoryBackend backend;
  {
    PersistentIndex index(backend, small_config());
    put_n(index, 200);
    index.compact();
    index.flush();
  }
  // Flip a byte in the middle of one shard page, below the framing.
  std::string victim;
  for (const auto& name : backend.list(Ns::kIndex)) {
    if (name.rfind("shard-", 0) == 0) {
      victim = name;
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  auto bytes = backend.get(Ns::kIndex, victim);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() / 2] ^= Byte{0x40};
  backend.put(Ns::kIndex, victim, *bytes);

  PersistentIndex reopened(backend, small_config());
  std::uint64_t hits = 0;
  for (std::uint64_t i = 0; i < 200; ++i) {
    hits += reopened.lookup(digest_of(i)).has_value() ? 1 : 0;
  }
  EXPECT_LT(hits, 200u);               // the bad page's entries are gone...
  EXPECT_GT(hits, 0u);                 // ...but only that page's
  EXPECT_GT(reopened.corrupt_page_reads(), 0u);
}

TEST(PersistentIndex, MissingMetaRebuildsFromHooks) {
  MemoryBackend backend;
  // An authoritative hooks namespace: hook name = fingerprint hex,
  // payload = owning manifest digest (as every engine writes them).
  for (std::uint64_t i = 0; i < 30; ++i) {
    backend.put(Ns::kHook, digest_of(i).hex(), entry_of(i).manifest.span());
  }
  // Index objects exist but the meta (commit point) never landed — the
  // crash window of a torn compaction.
  backend.put(Ns::kIndex, "journal-0", as_bytes("garbage"));

  PersistentIndex index(backend, small_config());
  EXPECT_EQ(index.entry_count(), 30u);
  for (std::uint64_t i = 0; i < 30; ++i) {
    const auto hit = index.lookup(digest_of(i));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->manifest, entry_of(i).manifest);
    EXPECT_EQ(hit->offset, 0u);  // offsets degrade to 0 on a rebuild
  }
}

TEST(PersistentIndex, PageCacheStaysWithinBudget) {
  PersistentIndexConfig cfg = small_config();
  cfg.shards = 64;
  cfg.cache_bytes = 16 << 10;  // holds only a few of the 64 pages
  MemoryBackend backend;
  {
    PersistentIndex index(backend, cfg);
    put_n(index, 4000);
    index.compact();
    index.flush();
  }
  PersistentIndex index(backend, cfg);
  Xoshiro256 rng(9);
  for (int i = 0; i < 2000; ++i) {  // random probes churn pages through
    index.lookup(digest_of(rng() % 4000));
  }
  expect_all(index, 4000);
  EXPECT_LE(index.page_cache_ram_high_water(), index.page_cache_budget());
  EXPECT_GE(index.ram_high_water(), index.page_cache_ram_high_water());
  EXPECT_GT(index.ram_bytes(), 0u);
}

TEST(PersistentIndex, ReopenAdoptsPersistedGeometry) {
  PersistentIndexConfig cfg = small_config();
  cfg.shards = 16;
  MemoryBackend backend;
  {
    PersistentIndex index(backend, cfg);
    put_n(index, 100);
    index.compact();
    index.flush();
  }
  // Reopening with a different shard count must keep the on-disk layout.
  PersistentIndexConfig other = small_config();
  other.shards = 4;
  PersistentIndex reopened(backend, other);
  EXPECT_EQ(reopened.entry_count(), 100u);
  expect_all(reopened, 100);
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
      [](StorageBackend& b) {
        return std::make_unique<PersistentIndex>(b, small_config());
      },
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
    index->put(hook, IndexEntry{names[0]});
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
  MemoryBackend raw;
  {
    FramedBackend framed(raw);
    PersistentIndex index(framed, small_config());
    put_n(index, 120);
    index.compact();
    put_n(index, 30, 120);
    index.flush();
  }
  FramedBackend framed(raw);
  PersistentIndex reopened(framed, small_config());
  EXPECT_EQ(reopened.entry_count(), 150u);
  expect_all(reopened, 150);
  // check_index sees through both the raw and the framed view.
  EXPECT_EQ(check_index(raw).entries, 150u);
  EXPECT_EQ(check_index(framed).entries, 150u);
}

TEST(PersistentIndex, CheckIndexFlagsStaleEntriesAndRebuildClears) {
  MemoryBackend backend;
  for (std::uint64_t i = 0; i < 20; ++i) {
    backend.put(Ns::kHook, digest_of(i).hex(), entry_of(i).manifest.span());
    backend.put(Ns::kManifest, entry_of(i).manifest.hex(),
                as_bytes("opaque manifest"));
  }
  {
    PersistentIndex index(backend, small_config());
    put_n(index, 20);
    index.flush();
  }
  auto report = check_index(backend);
  EXPECT_TRUE(report.meta_ok);
  EXPECT_EQ(report.entries, 20u);
  EXPECT_EQ(report.stale_entries, 0u);

  // Delete a manifest out-of-band: its index entries (and hook) are stale.
  backend.remove(Ns::kManifest, entry_of(4).manifest.hex());
  backend.remove(Ns::kHook, digest_of(4).hex());
  report = check_index(backend);
  EXPECT_EQ(report.stale_entries, 1u);

  rebuild_index(backend, small_config());
  report = check_index(backend);
  EXPECT_TRUE(report.meta_ok);
  EXPECT_EQ(report.entries, 19u);
  EXPECT_EQ(report.stale_entries, 0u);
  EXPECT_EQ(report.unindexed_hooks, 0u);

  PersistentIndex reopened(backend, small_config());
  EXPECT_FALSE(reopened.lookup(digest_of(4)).has_value());
  EXPECT_TRUE(reopened.lookup(digest_of(5)).has_value());
}

TEST(MemIndex, MatchesPersistentIndexSemantics) {
  MemIndex mem;
  MemoryBackend backend;
  PersistentIndex disk(backend, small_config());
  Xoshiro256 rng(17);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t key = rng() % 300;
    const Digest fp = digest_of(key);
    switch (rng() % 3) {
      case 0: {
        const IndexEntry e = entry_of(rng() % 50);
        mem.put(fp, e);
        disk.put(fp, e);
        break;
      }
      case 1:
        EXPECT_EQ(mem.erase(fp), disk.erase(fp)) << "step " << i;
        break;
      default: {
        const auto a = mem.lookup(fp);
        const auto b = disk.lookup(fp);
        ASSERT_EQ(a.has_value(), b.has_value()) << "step " << i;
        if (a) {
          EXPECT_EQ(a->manifest, b->manifest);
          EXPECT_EQ(a->offset, b->offset);
        }
        break;
      }
    }
    EXPECT_EQ(mem.entry_count(), disk.entry_count()) << "step " << i;
  }
}

}  // namespace
}  // namespace mhd
