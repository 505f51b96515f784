// Engine-level acceptance for the persistent fingerprint index.
//
// The headline property: ingesting generation 1, closing the process, and
// reopening with --index-impl=disk for generation 2 produces bit-identical
// stored objects and dedup counters to one uninterrupted in-RAM run —
// the warm restart restores the manifest-cache residency and the index
// restores every learned fingerprint, so nothing is re-discovered the
// expensive way. Also pinned here: the disk index's RAM stays within its
// configured page-cache budget, and GC leaves no index entry behind that
// could resurrect a swept manifest.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mhd/index/persistent_index.h"
#include "mhd/sim/runner.h"
#include "mhd/store/maintenance.h"
#include "mhd/store/memory_backend.h"
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
  cfg.index_cache_bytes = 256 << 10;
  // Shrunk geometry so a test-sized corpus exercises journal segment
  // rollover AND compaction, not just the in-RAM delta.
  cfg.index_shards = 8;
  cfg.index_journal_batch = 8;
  cfg.index_compact_threshold = 64;
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
  const auto report = check_index(disk_backend);
  EXPECT_TRUE(report.meta_ok);
  EXPECT_EQ(report.stale_entries, 0u);
  EXPECT_EQ(report.corrupt_objects, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    IndexedEngines, WarmRestartTest,
    testing::Values("mhd", "bf-mhd", "cdc", "bimodal", "fbc"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

TEST(DiskIndexBudget, PageCacheHighWaterStaysWithinConfiguredBudget) {
  const Corpus corpus(two_generation_corpus());
  MemoryBackend backend;
  ObjectStore store(backend);
  EngineConfig cfg = engine_config(IndexImpl::kDisk);
  cfg.index_cache_bytes = 8 << 10;  // deliberately tiny: force churn
  cfg.index_shards = 64;
  auto engine = make_engine("bf-mhd", store, cfg);
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    auto src = corpus.open(i);
    engine->add_file(corpus.files()[i].name, *src);
  }
  engine->finish();

  const auto* index =
      dynamic_cast<const PersistentIndex*>(engine->fingerprint_index());
  ASSERT_NE(index, nullptr);
  EXPECT_GT(index->entry_count(), 0u);
  EXPECT_LE(index->page_cache_ram_high_water(), index->page_cache_budget());
  // The reported RAM high-water covers at least the bounded page cache.
  EXPECT_GE(engine->index_ram_bytes(), index->page_cache_ram_high_water());
}

TEST(GcIndexInteraction, SweptManifestsDoNotResurrectAfterReopen) {
  const Corpus corpus(two_generation_corpus());
  MemoryBackend backend;
  ingest_range("bf-mhd", IndexImpl::kDisk, corpus, 0, corpus.files().size(),
               backend);
  ASSERT_EQ(check_index(backend).stale_entries, 0u);

  // Forget every snapshot, then sweep: cross-snapshot sharing would keep
  // a partially-deleted repository's manifests alive, and this test needs
  // manifests to actually disappear.
  std::vector<std::size_t> deleted;
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    ASSERT_TRUE(delete_file(backend, corpus.files()[i].name));
    deleted.push_back(i);
  }
  const GcReport gc = collect_garbage(backend);
  EXPECT_TRUE(gc.index_rebuilt);
  EXPECT_GT(gc.deleted_manifests, 0u);
  EXPECT_GT(gc.dropped_index_entries, 0u);

  // No index entry may survive pointing at a swept manifest — that entry
  // could hand a reopened engine a dangling duplicate reference.
  const auto after_gc = check_index(backend);
  EXPECT_TRUE(after_gc.meta_ok);
  EXPECT_EQ(after_gc.stale_entries, 0u);
  EXPECT_EQ(after_gc.entries, gc.index_entries);

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
  const auto final_report = check_index(backend);
  EXPECT_TRUE(final_report.meta_ok);
  EXPECT_EQ(final_report.stale_entries, 0u);
  const auto scrub = scrub_repository(backend);
  EXPECT_TRUE(scrub.clean());
}

}  // namespace
}  // namespace mhd
