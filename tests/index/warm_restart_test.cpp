// Engine-level acceptance for the disk index tier.
//
// The headline property: ingesting generation 1, closing the process, and
// reopening with --index-impl=disk for generation 2 produces bit-identical
// stored objects and dedup counters to one uninterrupted in-RAM run —
// the warm restart restores the manifest-cache residency, and with it
// (the mirror invariant) every fingerprint the uninterrupted run still
// held, so nothing is re-discovered the expensive way. Also pinned here:
// the tier stores only its warm list (and FBC's aux blob), a repository
// holding an earlier version's index objects reopens, checks clean and
// loses them to gc, and gc leaves no warm list behind that could reload
// a swept manifest.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mhd/index/persistent_index.h"
#include "mhd/index/sampled_index.h"
#include "mhd/sim/runner.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/framing.h"
#include "mhd/store/maintenance.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/scoped_backend.h"
#include "mhd/store/scrub.h"
#include "mhd/workload/presets.h"

namespace mhd {
namespace {

CorpusConfig two_generation_corpus() {
  CorpusConfig c = test_preset(73);
  c.machines = 2;
  c.snapshots = 3;
  return c;
}

EngineConfig engine_config(IndexImpl impl) {
  EngineConfig cfg;
  cfg.ecs = 1024;
  cfg.sd = 8;
  cfg.bloom_bytes = 64 * 1024;
  cfg.manifest_cache_bytes = 32 << 10;  // small enough to see evictions
  cfg.index_impl = impl;
  return cfg;
}

/// Ingests corpus files [first, last) through one fresh engine instance,
/// then destroys it (the close). Returns (counters, manifest_loads).
std::pair<EngineCounters, std::uint64_t> ingest_range(
    const std::string& engine_name, IndexImpl impl, const Corpus& corpus,
    std::size_t first, std::size_t last, StorageBackend& backend) {
  ObjectStore store(backend);
  auto engine = make_engine(engine_name, store, engine_config(impl));
  for (std::size_t i = first; i < last; ++i) {
    auto src = corpus.open(i);
    engine->add_file(corpus.files()[i].name, *src);
  }
  engine->finish();
  return {engine->counters(), engine->manifest_loads()};
}

void expect_namespace_identical(const StorageBackend& a,
                                const StorageBackend& b, Ns ns) {
  auto names_a = a.list(ns);
  auto names_b = b.list(ns);
  std::sort(names_a.begin(), names_a.end());
  std::sort(names_b.begin(), names_b.end());
  ASSERT_EQ(names_a, names_b) << ns_name(ns);
  for (const auto& name : names_a) {
    const auto bytes_a = a.get(ns, name);
    const auto bytes_b = b.get(ns, name);
    ASSERT_TRUE(bytes_a.has_value() && bytes_b.has_value());
    EXPECT_TRUE(equal(*bytes_a, *bytes_b)) << ns_name(ns) << "/" << name;
  }
}

void expect_counters_equal(const EngineCounters& a, const EngineCounters& b) {
  EXPECT_EQ(a.input_bytes, b.input_bytes);
  EXPECT_EQ(a.input_files, b.input_files);
  EXPECT_EQ(a.input_chunks, b.input_chunks);
  EXPECT_EQ(a.dup_chunks, b.dup_chunks);
  EXPECT_EQ(a.dup_bytes, b.dup_bytes);
  EXPECT_EQ(a.dup_slices, b.dup_slices);
  EXPECT_EQ(a.stored_chunks, b.stored_chunks);
  EXPECT_EQ(a.files_with_data, b.files_with_data);
  EXPECT_EQ(a.hhr_operations, b.hhr_operations);
  EXPECT_EQ(a.hhr_chunk_reloads, b.hhr_chunk_reloads);
  EXPECT_EQ(a.shm_merged_hashes, b.shm_merged_hashes);
  EXPECT_EQ(a.corruption_fallbacks, b.corruption_fallbacks);
}

EngineCounters sum(const EngineCounters& a, const EngineCounters& b) {
  EngineCounters s;
  s.input_bytes = a.input_bytes + b.input_bytes;
  s.input_files = a.input_files + b.input_files;
  s.input_chunks = a.input_chunks + b.input_chunks;
  s.dup_chunks = a.dup_chunks + b.dup_chunks;
  s.dup_bytes = a.dup_bytes + b.dup_bytes;
  s.dup_slices = a.dup_slices + b.dup_slices;
  s.stored_chunks = a.stored_chunks + b.stored_chunks;
  s.files_with_data = a.files_with_data + b.files_with_data;
  s.hhr_operations = a.hhr_operations + b.hhr_operations;
  s.hhr_chunk_reloads = a.hhr_chunk_reloads + b.hhr_chunk_reloads;
  s.shm_merged_hashes = a.shm_merged_hashes + b.shm_merged_hashes;
  s.corruption_fallbacks = a.corruption_fallbacks + b.corruption_fallbacks;
  return s;
}

class WarmRestartTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WarmRestartTest, ReopenedDiskIndexMatchesUninterruptedMemRun) {
  const std::string engine_name = GetParam();
  const Corpus corpus(two_generation_corpus());
  const std::size_t split = corpus.files().size() / 2;
  ASSERT_GT(split, 0u);

  // Run A: one uninterrupted engine with the historical in-RAM index.
  MemoryBackend mem_backend;
  const auto [mem_counters, mem_loads] =
      ingest_range(engine_name, IndexImpl::kMem, corpus, 0,
                   corpus.files().size(), mem_backend);

  // Run B: disk index, with a full process close between the generations.
  MemoryBackend disk_backend;
  const auto [gen1_counters, gen1_loads] = ingest_range(
      engine_name, IndexImpl::kDisk, corpus, 0, split, disk_backend);
  ASSERT_TRUE(PersistentIndex::present(disk_backend));
  const auto [gen2_counters, gen2_loads] =
      ingest_range(engine_name, IndexImpl::kDisk, corpus, split,
                   corpus.files().size(), disk_backend);

  // Identical user-visible stores: every data/metadata object bit-equal
  // (the index namespace is the disk run's private addition).
  for (const Ns ns : {Ns::kDiskChunk, Ns::kHook, Ns::kManifest,
                      Ns::kFileManifest}) {
    expect_namespace_identical(mem_backend, disk_backend, ns);
  }
  // Identical dedup decisions, including across the restart boundary.
  expect_counters_equal(mem_counters, sum(gen1_counters, gen2_counters));
  // The warm restart makes even the cache behavior equivalent: the
  // reopened run loads no manifest the uninterrupted run didn't.
  EXPECT_EQ(mem_loads, gen1_loads + gen2_loads);

  // The disk side is self-consistent on top of being equivalent.
  const auto report =
      fsck_repository(disk_backend, /*repair=*/false, {}, /*framed=*/false);
  EXPECT_TRUE(report.issues.empty()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    IndexedEngines, WarmRestartTest,
    testing::Values("mhd", "bf-mhd", "cdc", "bimodal", "fbc"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(GcIndexInteraction, SweptManifestsDoNotResurrectAfterReopen) {
  const Corpus corpus(two_generation_corpus());
  MemoryBackend backend;
  ingest_range("bf-mhd", IndexImpl::kDisk, corpus, 0, corpus.files().size(),
               backend);
  ASSERT_FALSE(PersistentIndex(backend).load_warm_list().empty());

  // Forget every snapshot, then sweep: cross-snapshot sharing would keep
  // a partially-deleted repository's manifests alive, and this test needs
  // manifests to actually disappear.
  std::vector<std::size_t> deleted;
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    ASSERT_TRUE(delete_file(backend, corpus.files()[i].name));
    deleted.push_back(i);
  }
  const GcReport gc = collect_garbage(backend);
  EXPECT_GT(gc.deleted_manifests, 0u);

  // No warm list may survive naming a swept manifest: the tier is gone,
  // and the reopened engine starts cold.
  EXPECT_EQ(backend.object_count(Ns::kIndex), 0u);

  // Reopen and re-ingest the deleted files: the index must re-learn them
  // (not "remember" them), and every file must restore byte-exactly.
  ObjectStore store(backend);
  auto engine = make_engine("bf-mhd", store, engine_config(IndexImpl::kDisk));
  for (const std::size_t i : deleted) {
    auto src = corpus.open(i);
    engine->add_file(corpus.files()[i].name, *src);
  }
  engine->finish();
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    auto src = corpus.open(i);
    const ByteVec original = read_all(*src);
    const auto restored = engine->reconstruct(corpus.files()[i].name);
    ASSERT_TRUE(restored.has_value()) << corpus.files()[i].name;
    ASSERT_TRUE(equal(*restored, original)) << corpus.files()[i].name;
  }
  const auto fsck =
      fsck_repository(backend, /*repair=*/false, {}, /*framed=*/false);
  EXPECT_TRUE(fsck.clean()) << fsck.to_string();
}

// The tier stores what decides the next run and nothing else: after a
// real ingest on a framed FileBackend, index/ holds the warm list, plus
// FBC's frequency sketch.
class DiskTierObjectsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DiskTierObjectsTest, FramedFileRepositoryHoldsOnlyWarmList) {
  const std::string engine_name = GetParam();
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("mhd_disk_tier_" + engine_name + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const Corpus corpus(two_generation_corpus());
  {
    FileBackend file(dir);
    FramedBackend framed(file);
    ingest_range(engine_name, IndexImpl::kDisk, corpus, 0,
                 corpus.files().size(), framed);
  }
  FileBackend file(dir);
  auto names = file.list(Ns::kIndex);
  std::sort(names.begin(), names.end());
  const std::vector<std::string> expected =
      engine_name == "fbc" ? std::vector<std::string>{"aux-fbc-frequency", "warm"}
                           : std::vector<std::string>{"warm"};
  EXPECT_EQ(names, expected);
  EXPECT_FALSE(PersistentIndex(file).load_warm_list().empty());
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    IndexedEngines, DiskTierObjectsTest,
    testing::Values("mhd", "bf-mhd", "cdc", "bimodal", "fbc"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// A scope written by an earlier version also holds that version's copy of
// the map: a meta object, bucket pages, journal segments and a bloom
// snapshot. The engine ignores them, fsck accepts them while they are
// sealed, and gc removes them with the rest of the disk tier, sparing a
// sampled tier beside it.
TEST(EarlierIndexObjects, ReopenCheckCleanAndGcRemovesThem) {
  const Corpus corpus(two_generation_corpus());
  const std::size_t split = corpus.files().size() / 2;
  const std::vector<std::string> planted = {"bloom", "journal-0", "meta",
                                            "shard-0-g1"};
  // Two tenant scopes ingest generation 1 alike; one also gets the
  // earlier version's objects.
  MemoryBackend backend;
  ScopedBackend old_scope(backend, "t1.");
  ScopedBackend twin_scope(backend, "t2.");
  ingest_range("bf-mhd", IndexImpl::kDisk, corpus, 0, split, old_scope);
  ingest_range("bf-mhd", IndexImpl::kDisk, corpus, 0, split, twin_scope);
  const auto warm = PersistentIndex(old_scope).load_warm_list();
  ASSERT_FALSE(warm.empty());
  for (const auto& name : planted) {
    old_scope.put(Ns::kIndex, name,
                  framing::seal_object(as_bytes("earlier format: " + name)));
  }

  // Reopen: the same residency loads, and generation 2 decides exactly as
  // in the twin scope, which never held the earlier objects.
  EXPECT_EQ(PersistentIndex(old_scope).load_warm_list(), warm);
  const auto [old_counters, old_loads] = ingest_range(
      "bf-mhd", IndexImpl::kDisk, corpus, split, corpus.files().size(),
      old_scope);
  const auto [twin_counters, twin_loads] = ingest_range(
      "bf-mhd", IndexImpl::kDisk, corpus, split, corpus.files().size(),
      twin_scope);
  expect_counters_equal(old_counters, twin_counters);
  EXPECT_EQ(old_loads, twin_loads);
  for (const Ns ns : {Ns::kDiskChunk, Ns::kHook, Ns::kManifest,
                      Ns::kFileManifest}) {
    expect_namespace_identical(old_scope, twin_scope, ns);
  }

  // A sampled tier beside them, built from the scope's hooks.
  rebuild_sampled_index(old_scope);
  std::vector<std::pair<std::string, ByteVec>> sampled;
  for (const auto& name : old_scope.list(Ns::kIndex)) {
    if (name.rfind("sampled-", 0) == 0) {
      sampled.emplace_back(name, *old_scope.get(Ns::kIndex, name));
    }
  }
  std::sort(sampled.begin(), sampled.end());
  ASSERT_FALSE(sampled.empty());

  const auto fsck =
      fsck_repository(backend, /*repair=*/false, {}, /*framed=*/false);
  EXPECT_TRUE(fsck.issues.empty()) << fsck.to_string();

  // gc deletes the disk tier of every scope: the planted objects and the
  // scope's own warm list. The sampled family is rebuilt from the same
  // hooks, so its objects come back byte-identical.
  for (const auto& name : planted) {
    ASSERT_TRUE(old_scope.exists(Ns::kIndex, name)) << name;
  }
  const GcReport gc = collect_garbage(backend);
  EXPECT_EQ(gc.deleted_chunks, 0u);
  std::vector<std::pair<std::string, ByteVec>> left;
  for (const auto& name : old_scope.list(Ns::kIndex)) {
    left.emplace_back(name, *old_scope.get(Ns::kIndex, name));
  }
  std::sort(left.begin(), left.end());
  ASSERT_EQ(left.size(), sampled.size());
  for (std::size_t i = 0; i < left.size(); ++i) {
    EXPECT_EQ(left[i].first, sampled[i].first);
    EXPECT_TRUE(equal(left[i].second, sampled[i].second)) << left[i].first;
  }
  EXPECT_EQ(twin_scope.object_count(Ns::kIndex), 0u);
}

}  // namespace
}  // namespace mhd
