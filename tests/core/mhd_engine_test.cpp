#include "mhd/core/mhd_engine.h"

#include <gtest/gtest.h>

#include "../dedup/engine_test_util.h"
#include "mhd/dedup/cdc_engine.h"
#include "mhd/store/memory_backend.h"
#include "mhd/workload/presets.h"

namespace mhd {
namespace {

using testutil::NamedFile;
using testutil::random_bytes;

EngineConfig small_config() {
  EngineConfig cfg;
  cfg.ecs = 512;
  cfg.sd = 8;
  cfg.bloom_bytes = 64 * 1024;
  return cfg;
}

TEST(MhdEngine, ReconstructsSingleFile) {
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, small_config());
  const std::vector<NamedFile> files = {{"a.img", random_bytes(100000, 1)}};
  testutil::run_files(engine, files);
  testutil::expect_reconstructs(engine, files);
}

TEST(MhdEngine, ShmManifestShape) {
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, small_config());
  const std::vector<NamedFile> files = {{"a.img", random_bytes(100000, 2)}};
  testutil::run_files(engine, files);

  const auto& c = engine.counters();
  const std::uint64_t groups = (c.stored_chunks + 7) / 8;  // ceil(N/SD)
  // One hook file per SD-group of stored chunks.
  EXPECT_EQ(backend.object_count(Ns::kHook), groups);
  // Two manifest entries per full group (hook + merged hash).
  const auto raw = backend.get(Ns::kManifest,
                               DedupEngine::file_digest("a.img").hex());
  ASSERT_TRUE(raw.has_value());
  const auto manifest = Manifest::deserialize(*raw);
  ASSERT_TRUE(manifest.has_value());
  EXPECT_LE(manifest->entries().size(), 2 * groups);
  EXPECT_GE(manifest->entries().size(), groups);
  EXPECT_TRUE(manifest->regions_contiguous());
  // Hook entries are single chunks; merged entries span several.
  std::uint64_t hooks = 0, merged = 0;
  for (const auto& e : manifest->entries()) {
    if (e.is_hook) {
      ++hooks;
      EXPECT_EQ(e.chunk_count, 1u);
    } else {
      ++merged;
      EXPECT_GT(e.chunk_count, 1u);
    }
  }
  EXPECT_EQ(hooks, groups);
  EXPECT_EQ(merged, c.shm_merged_hashes);
}

TEST(MhdEngine, IdenticalSecondFileFullyDeduplicates) {
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, small_config());
  const ByteVec data = random_bytes(200000, 3);
  const std::vector<NamedFile> files = {{"a.img", data}, {"b.img", data}};
  testutil::run_files(engine, files);
  testutil::expect_reconstructs(engine, files);

  const auto& c = engine.counters();
  EXPECT_EQ(c.files_with_data, 1u);
  EXPECT_EQ(c.dup_bytes, data.size());
  // One anchored slice covers the whole duplicate file.
  EXPECT_EQ(c.dup_slices, 1u);
  // The merged hashes matched directly: no HHR, no chunk reloads.
  EXPECT_EQ(c.hhr_operations, 0u);
  EXPECT_EQ(backend.content_bytes(Ns::kDiskChunk), data.size());
}

// A file whose chunk B repeats after an anchor (A+B+C+B+E): its first
// store keeps one copy of B, inside a merged entry, and references it for
// the repeat. A copy's forward extension then stops where the DiskChunk
// skips the repeat, and B is no hook; the copy must still resolve it
// through the location the extension matched for the first B.
TEST(MhdEngine, CopyOfFileWithRepeatedChunkStoresNothing) {
  MemoryBackend backend;
  ObjectStore store(backend);
  EngineConfig cfg = small_config();
  cfg.chunker = ChunkerKind::kFixed;  // chunk i is bytes [512 i, 512 (i+1))
  MhdEngine engine(store, cfg);
  const ByteVec b = random_bytes(512, 13);
  ByteVec data;
  // Chunks 0-2 A, 3 B (in the first group's merged entry), 4-15 C,
  // 16 B again, 17-28 E.
  for (const ByteVec& part :
       {random_bytes(3 * 512, 10), b, random_bytes(12 * 512, 11), b,
        random_bytes(12 * 512, 12)}) {
    data.insert(data.end(), part.begin(), part.end());
  }
  MemorySource a(data);
  engine.add_file("a.img", a);
  const auto first = engine.counters();
  ASSERT_EQ(first.dup_bytes, b.size());  // the second B, within the file

  MemorySource copy(data);
  engine.add_file("b.img", copy);
  engine.finish();
  testutil::expect_reconstructs(engine, {{"a.img", data}, {"b.img", data}});
  const auto& c = engine.counters();
  EXPECT_EQ(c.stored_chunks, first.stored_chunks);
  EXPECT_EQ(c.dup_bytes - first.dup_bytes, data.size());
  EXPECT_EQ(c.files_with_data, 1u);
}

TEST(MhdEngine, MiddleEditTriggersHhrAndRecoversBothSides) {
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, small_config());
  ByteVec a = random_bytes(200000, 4);
  ByteVec b = a;
  // Replace a region in the middle (same length, new content).
  const ByteVec patch = random_bytes(10000, 5);
  std::copy(patch.begin(), patch.end(), b.begin() + 90000);

  const std::vector<NamedFile> files = {{"a.img", a}, {"b.img", b}};
  testutil::run_files(engine, files);
  testutil::expect_reconstructs(engine, files);

  const auto& c = engine.counters();
  // Both flanks of the edit deduplicate; only ~10KB (plus chunk-boundary
  // spill) is stored for file b.
  EXPECT_GT(c.dup_bytes, 160000u);
  EXPECT_GE(c.hhr_operations, 1u);
  EXPECT_GE(c.hhr_chunk_reloads, 1u);
  EXPECT_LT(backend.content_bytes(Ns::kDiskChunk), a.size() + 40000);
}

TEST(MhdEngine, EdgeHashPreventsRepeatHhr) {
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, small_config());
  ByteVec a = random_bytes(200000, 6);
  ByteVec b = a;
  const ByteVec patch = random_bytes(8000, 7);
  std::copy(patch.begin(), patch.end(), b.begin() + 100000);

  std::vector<NamedFile> files = {{"a.img", a}, {"b.img", b}};
  testutil::run_files(engine, files);
  const std::uint64_t hhr_after_b = engine.counters().hhr_operations;
  ASSERT_GE(hhr_after_b, 1u);

  // The same modified image appears again (next day's backup): its slices
  // match the re-chunked entries by hash, so no new reloads are needed.
  MemorySource src(b);
  engine.add_file("c.img", src);
  engine.finish();
  EXPECT_EQ(engine.counters().hhr_operations, hhr_after_b);

  files.push_back({"c.img", b});
  testutil::expect_reconstructs(engine, files);
}

TEST(MhdEngine, CountersAreConsistent) {
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, small_config());
  const Corpus corpus(test_preset(8));
  testutil::run_corpus(engine, corpus);
  const auto& c = engine.counters();
  EXPECT_EQ(c.input_files, corpus.files().size());
  EXPECT_EQ(c.input_bytes, corpus.total_bytes());
  EXPECT_EQ(c.input_chunks, c.stored_chunks + c.dup_chunks);
  EXPECT_GE(c.dup_chunks, c.dup_slices);
  EXPECT_EQ(backend.object_count(Ns::kFileManifest), c.input_files);
}

TEST(MhdEngine, CorpusReconstructs) {
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, small_config());
  const Corpus corpus(test_preset(9));
  testutil::run_corpus(engine, corpus);
  testutil::expect_reconstructs_corpus(engine, corpus);
  EXPECT_LT(backend.content_bytes(Ns::kDiskChunk), corpus.total_bytes() / 2);
}

TEST(MhdEngine, FarLessMetadataThanCdc) {
  const Corpus corpus(test_preset(10));

  MemoryBackend mb, cb;
  ObjectStore ms(mb), cs(cb);
  MhdEngine mhd(ms, small_config());
  CdcEngine cdc(cs, small_config());
  testutil::run_corpus(mhd, corpus);
  testutil::run_corpus(cdc, corpus);

  const auto meta_bytes = [](const MemoryBackend& b) {
    return b.content_bytes(Ns::kHook) + b.content_bytes(Ns::kManifest) +
           b.object_count(Ns::kHook) * StorageBackend::kInodeBytes;
  };
  // SD=8 should cut hook+manifest metadata by roughly the sample distance.
  EXPECT_LT(meta_bytes(mb), meta_bytes(cb) / 3);
  // While still finding a comparable amount of duplication.
  EXPECT_GT(mhd.counters().dup_bytes, cdc.counters().dup_bytes / 2);
}

TEST(MhdEngine, WorksWithoutBloom) {
  MemoryBackend backend;
  ObjectStore store(backend);
  EngineConfig cfg = small_config();
  cfg.use_bloom = false;
  MhdEngine engine(store, cfg);
  const ByteVec data = random_bytes(150000, 11);
  const std::vector<NamedFile> files = {{"a", data}, {"b", data}};
  testutil::run_files(engine, files);
  testutil::expect_reconstructs(engine, files);
  EXPECT_EQ(engine.counters().dup_bytes, data.size());
}

TEST(MhdEngine, StatePersistsAcrossEngineInstances) {
  MemoryBackend backend;
  ByteVec a = random_bytes(120000, 12);
  ByteVec b = a;
  const ByteVec patch = random_bytes(5000, 13);
  std::copy(patch.begin(), patch.end(), b.begin() + 60000);
  {
    ObjectStore store(backend);
    MhdEngine engine(store, small_config());
    const std::vector<NamedFile> files = {{"a", a}, {"b", b}};
    testutil::run_files(engine, files);  // finish() flushes dirty manifests
  }
  // A fresh engine over the same backend restores everything (validates
  // that HHR-updated manifests and all data reached the store).
  ObjectStore store2(backend);
  MhdEngine engine2(store2, small_config());
  const auto ra = engine2.reconstruct("a");
  const auto rb = engine2.reconstruct("b");
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_TRUE(equal(*ra, a));
  EXPECT_TRUE(equal(*rb, b));
}

TEST(MhdEngine, EmptyAndTinyFiles) {
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, small_config());
  const std::vector<NamedFile> files = {
      {"empty", {}}, {"tiny", random_bytes(10, 14)}, {"small", random_bytes(700, 15)}};
  testutil::run_files(engine, files);
  testutil::expect_reconstructs(engine, files);
}

// Ablation configurations must preserve correctness.
class MhdAblationTest : public ::testing::TestWithParam<int> {};

TEST_P(MhdAblationTest, ReconstructsUnderAblation) {
  EngineConfig cfg = small_config();
  switch (GetParam()) {
    case 0: cfg.enable_shm = false; break;
    case 1: cfg.enable_edge_hash = false; break;
    case 2: cfg.enable_backward_extension = false; break;
    case 3: cfg.use_bloom = false; break;
  }
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, cfg);
  ByteVec a = random_bytes(150000, 16);
  ByteVec b = a;
  const ByteVec patch = random_bytes(7000, 17);
  std::copy(patch.begin(), patch.end(), b.begin() + 70000);
  const std::vector<NamedFile> files = {{"a", a}, {"b", b}};
  testutil::run_files(engine, files);
  testutil::expect_reconstructs(engine, files);
  EXPECT_GT(engine.counters().dup_bytes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Ablations, MhdAblationTest,
                         ::testing::Values(0, 1, 2, 3));

// Paper parameterization sweep: reconstruction holds across ECS x SD.
class MhdParamTest
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t>> {};

TEST_P(MhdParamTest, ReconstructsAcrossEcsSd) {
  EngineConfig cfg;
  cfg.ecs = std::get<0>(GetParam());
  cfg.sd = std::get<1>(GetParam());
  cfg.bloom_bytes = 64 * 1024;
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, cfg);
  const Corpus corpus(test_preset(std::get<0>(GetParam()) + std::get<1>(GetParam())));
  testutil::run_corpus(engine, corpus);
  testutil::expect_reconstructs_corpus(engine, corpus);
  const auto& c = engine.counters();
  EXPECT_EQ(c.input_chunks, c.stored_chunks + c.dup_chunks);
}

INSTANTIATE_TEST_SUITE_P(
    EcsSdSweep, MhdParamTest,
    ::testing::Combine(::testing::Values(256u, 1024u, 4096u),
                       ::testing::Values(2u, 8u, 32u)));


// The engine must be chunker-agnostic: MHD's SHM/BME/HHR machinery only
// assumes content-defined cut points, so it runs unchanged on TTTD and
// Gear/FastCDC.
class MhdChunkerKindTest : public ::testing::TestWithParam<ChunkerKind> {};

TEST_P(MhdChunkerKindTest, ReconstructsOnAlternativeChunkers) {
  EngineConfig cfg = small_config();
  cfg.chunker = GetParam();
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, cfg);
  ByteVec a = random_bytes(180000, 41);
  ByteVec b = a;
  const ByteVec patch = random_bytes(6000, 42);
  std::copy(patch.begin(), patch.end(), b.begin() + 90000);
  const std::vector<NamedFile> files = {{"a", a}, {"b", b}};
  testutil::run_files(engine, files);
  testutil::expect_reconstructs(engine, files);
  EXPECT_GT(engine.counters().dup_bytes, 120000u);
}

INSTANTIATE_TEST_SUITE_P(Chunkers, MhdChunkerKindTest,
                         ::testing::Values(ChunkerKind::kRabin,
                                           ChunkerKind::kTttd,
                                           ChunkerKind::kGear));

}  // namespace
}  // namespace mhd
