#include "mhd/dedup/sparse_index_engine.h"

#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "mhd/store/memory_backend.h"
#include "mhd/workload/presets.h"

namespace mhd {
namespace {

using testutil::NamedFile;
using testutil::random_bytes;

EngineConfig small_config() {
  EngineConfig cfg;
  cfg.ecs = 512;
  cfg.sd = 4;  // sample 1/4 of hashes as hooks; segments of ~10 KB
  cfg.bloom_bytes = 64 * 1024;
  return cfg;
}

TEST(SparseIndexEngine, ReconstructsSingleFile) {
  MemoryBackend backend;
  ObjectStore store(backend);
  SparseIndexEngine engine(store, small_config());
  const std::vector<NamedFile> files = {{"a.img", random_bytes(200000, 1)}};
  testutil::run_files(engine, files);
  testutil::expect_reconstructs(engine, files);
}

TEST(SparseIndexEngine, IdenticalSecondFileDeduplicates) {
  MemoryBackend backend;
  ObjectStore store(backend);
  SparseIndexEngine engine(store, small_config());
  const ByteVec data = random_bytes(250000, 2);
  const std::vector<NamedFile> files = {{"a", data}, {"b", data}};
  testutil::run_files(engine, files);
  testutil::expect_reconstructs(engine, files);
  // Sampling means detection is probabilistic per segment, but with 1/4
  // hook sampling virtually every segment finds its champion.
  EXPECT_GT(engine.counters().dup_bytes, data.size() * 9 / 10);
}

TEST(SparseIndexEngine, SegmentManifestsRecordDuplicatesToo) {
  MemoryBackend backend;
  ObjectStore store(backend);
  SparseIndexEngine engine(store, small_config());
  const ByteVec data = random_bytes(150000, 3);
  const std::vector<NamedFile> files = {{"a", data}, {"b", data}};
  testutil::run_files(engine, files);
  // Manifest bytes grow with the *input*, not with unique data: the fully
  // duplicate second file still wrote its own segment manifests.
  const std::uint64_t manifests = backend.object_count(Ns::kManifest);
  EXPECT_GE(manifests, 2u * (150000 / (512 * 4 * 5)));
}

TEST(SparseIndexEngine, SparseIndexRamIsSmallFractionOfInput) {
  MemoryBackend backend;
  ObjectStore store(backend);
  SparseIndexEngine engine(store, small_config());
  const Corpus corpus(test_preset(4));
  testutil::run_corpus(engine, corpus);
  EXPECT_GT(engine.index_ram_bytes(), 0u);
  // TABLE III: sparse index around 0.01%..a few % of input at small scale.
  EXPECT_LT(engine.index_ram_bytes(), corpus.total_bytes() / 10);
}

TEST(SparseIndexEngine, CorpusReconstructsAndDeduplicates) {
  MemoryBackend backend;
  ObjectStore store(backend);
  SparseIndexEngine engine(store, small_config());
  const Corpus corpus(test_preset(5));
  testutil::run_corpus(engine, corpus);
  testutil::expect_reconstructs_corpus(engine, corpus);
  EXPECT_LT(backend.content_bytes(Ns::kDiskChunk), corpus.total_bytes() / 2);
}

TEST(SparseIndexEngine, ChampionCapBoundsManifestLoadsPerSegment) {
  MemoryBackend backend;
  ObjectStore store(backend);
  EngineConfig cfg = small_config();
  cfg.max_champions = 2;
  SparseIndexEngine engine(store, cfg);
  const Corpus corpus(test_preset(6));
  testutil::run_corpus(engine, corpus);
  // Loads can never exceed champions * segments processed (a segment is
  // ECS * SD * 5 bytes, paper Section V).
  const std::uint64_t segment_bytes =
      static_cast<std::uint64_t>(cfg.ecs) * cfg.sd * 5;
  const std::uint64_t segments =
      corpus.total_bytes() / segment_bytes + corpus.files().size();
  EXPECT_LE(engine.manifest_loads(), segments * cfg.max_champions);
}

TEST(SparseIndexEngine, EmptyFileHandled) {
  MemoryBackend backend;
  ObjectStore store(backend);
  SparseIndexEngine engine(store, small_config());
  const std::vector<NamedFile> files = {{"empty", {}}};
  testutil::run_files(engine, files);
  testutil::expect_reconstructs(engine, files);
}

}  // namespace
}  // namespace mhd
