#include "mhd/store/maintenance.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../dedup/engine_test_util.h"
#include "mhd/core/mhd_engine.h"
#include "mhd/dedup/cdc_engine.h"
#include "mhd/sim/runner.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/scrub.h"
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

/// fsck of an unframed in-memory repository: its bytes are plain.
FsckReport check(StorageBackend& backend) {
  return fsck_repository(backend, /*repair=*/false, {}, /*framed=*/false);
}

bool has_issue(const FsckReport& report, FsckIssue::Kind kind) {
  return std::any_of(report.issues.begin(), report.issues.end(),
                     [&](const FsckIssue& i) { return i.kind == kind; });
}

TEST(Scrub, CleanRepositoryPasses) {
  MemoryBackend backend;
  {
    ObjectStore store(backend);
    MhdEngine engine(store, small_config());
    ByteVec a = random_bytes(150000, 1);
    ByteVec b = a;
    const ByteVec patch = random_bytes(5000, 2);
    std::copy(patch.begin(), patch.end(), b.begin() + 70000);
    const std::vector<NamedFile> files = {{"a", a}, {"b", b}};
    testutil::run_files(engine, files);
  }
  const auto report = check(backend);
  EXPECT_TRUE(report.clean()) << report.to_string();
  EXPECT_TRUE(report.issues.empty()) << report.to_string();
  EXPECT_EQ(report.objects, backend.total_objects());
  EXPECT_EQ(report.clean_objects, report.objects);
}

TEST(Scrub, DetectsCorruptedChunkBytes) {
  MemoryBackend backend;
  {
    ObjectStore store(backend);
    MhdEngine engine(store, small_config());
    const std::vector<NamedFile> files = {{"a", random_bytes(100000, 3)}};
    testutil::run_files(engine, files);
  }
  // Flip a byte inside the stored DiskChunk.
  const auto names = backend.list(Ns::kDiskChunk);
  ASSERT_FALSE(names.empty());
  auto chunk = *backend.get(Ns::kDiskChunk, names[0]);
  chunk[chunk.size() / 2] ^= 0xFF;
  backend.put(Ns::kDiskChunk, names[0], chunk);

  const auto report = check(backend);
  EXPECT_FALSE(report.clean());
  EXPECT_GT(report.hash_mismatches, 0u);
  EXPECT_TRUE(has_issue(report, FsckIssue::Kind::kHashMismatch));
}

TEST(Scrub, DetectsMissingChunk) {
  MemoryBackend backend;
  {
    ObjectStore store(backend);
    CdcEngine engine(store, small_config());
    const std::vector<NamedFile> files = {{"a", random_bytes(80000, 4)}};
    testutil::run_files(engine, files);
  }
  for (const auto& name : backend.list(Ns::kDiskChunk)) {
    backend.remove(Ns::kDiskChunk, name);
  }
  // FileManifest ranges and the chunks' standard manifests both name
  // missing chunks.
  const auto report = check(backend);
  EXPECT_FALSE(report.clean());
  EXPECT_GT(report.broken_refs, 0u);
  const auto broken = [&](Ns ns) {
    return std::any_of(report.issues.begin(), report.issues.end(),
                       [&](const FsckIssue& i) {
                         return i.ns == ns &&
                                i.kind == FsckIssue::Kind::kBrokenRef;
                       });
  };
  EXPECT_TRUE(broken(Ns::kFileManifest)) << report.to_string();
  EXPECT_TRUE(broken(Ns::kManifest)) << report.to_string();
}

TEST(Scrub, DetectsDanglingHooks) {
  MemoryBackend backend;
  {
    ObjectStore store(backend);
    MhdEngine engine(store, small_config());
    const std::vector<NamedFile> files = {{"a", random_bytes(80000, 5)}};
    testutil::run_files(engine, files);
  }
  for (const auto& name : backend.list(Ns::kManifest)) {
    backend.remove(Ns::kManifest, name);
  }
  const auto report = check(backend);
  EXPECT_FALSE(report.clean());
  EXPECT_GT(report.dangling_hooks, 0u);
  EXPECT_TRUE(has_issue(report, FsckIssue::Kind::kDanglingHook));
}

TEST(Gc, DeleteFileThenCollectReclaimsSpace) {
  MemoryBackend backend;
  const ByteVec unique1 = random_bytes(120000, 6);
  const ByteVec unique2 = random_bytes(120000, 7);
  {
    ObjectStore store(backend);
    MhdEngine engine(store, small_config());
    const std::vector<NamedFile> files = {{"keep", unique1},
                                          {"drop", unique2}};
    testutil::run_files(engine, files);
  }
  const auto before = backend.content_bytes(Ns::kDiskChunk);
  ASSERT_TRUE(delete_file(backend, "drop"));
  EXPECT_FALSE(delete_file(backend, "drop"));  // already gone
  const auto gc = collect_garbage(backend);
  EXPECT_EQ(gc.deleted_chunks, 1u);
  EXPECT_GE(gc.reclaimed_bytes, unique2.size());
  EXPECT_LT(backend.content_bytes(Ns::kDiskChunk), before);

  // The kept file still restores; the repository is clean.
  ObjectStore store2(backend);
  MhdEngine engine2(store2, small_config());
  const auto restored = engine2.reconstruct("keep");
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(equal(*restored, unique1));
  EXPECT_TRUE(check(backend).clean());
}

TEST(Gc, SharedChunksSurviveDeletion) {
  MemoryBackend backend;
  const ByteVec shared = random_bytes(120000, 8);
  {
    ObjectStore store(backend);
    MhdEngine engine(store, small_config());
    const std::vector<NamedFile> files = {{"v1", shared}, {"v2", shared}};
    testutil::run_files(engine, files);
  }
  ASSERT_TRUE(delete_file(backend, "v1"));
  const auto gc = collect_garbage(backend);
  EXPECT_EQ(gc.deleted_chunks, 0u);  // v2 still references the data

  ObjectStore store2(backend);
  MhdEngine engine2(store2, small_config());
  const auto restored = engine2.reconstruct("v2");
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(equal(*restored, shared));
}

TEST(Gc, DedupStillWorksAfterCollection) {
  MemoryBackend backend;
  const ByteVec data = random_bytes(150000, 9);
  {
    ObjectStore store(backend);
    MhdEngine engine(store, small_config());
    const std::vector<NamedFile> files = {{"a", data}};
    testutil::run_files(engine, files);
  }
  collect_garbage(backend);  // nothing to delete; must not break state
  ObjectStore store2(backend);
  MhdEngine engine2(store2, small_config());
  MemorySource src(data);
  engine2.add_file("b", src);
  engine2.finish();
  EXPECT_EQ(engine2.counters().dup_bytes, data.size());
}

// GC across every engine family: delete half the files, collect, and the
// remaining files must still restore byte-exactly with a clean fsck.
class GcEngineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(GcEngineTest, SurvivorsRestoreAfterGc) {
  MemoryBackend backend;
  CorpusConfig ccfg = test_preset(77);
  ccfg.machines = 2;
  ccfg.snapshots = 3;
  const Corpus corpus(ccfg);
  {
    ObjectStore store(backend);
    auto engine = make_engine(GetParam(), store, small_config());
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      auto src = corpus.open(i);
      engine->add_file(corpus.files()[i].name, *src);
    }
    engine->finish();
  }
  // Drop the first day's backups.
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    if (corpus.files()[i].snapshot == 0) {
      ASSERT_TRUE(delete_file(backend, corpus.files()[i].name));
    }
  }
  collect_garbage(backend);

  ObjectStore store2(backend);
  auto engine2 = make_engine(GetParam(), store2, small_config());
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    if (corpus.files()[i].snapshot == 0) continue;
    auto src = corpus.open(i);
    const ByteVec original = read_all(*src);
    const auto restored = engine2->reconstruct(corpus.files()[i].name);
    ASSERT_TRUE(restored.has_value()) << corpus.files()[i].name;
    EXPECT_TRUE(equal(*restored, original)) << corpus.files()[i].name;
  }
  const auto report = check(backend);
  EXPECT_TRUE(report.clean()) << report.to_string();
}

INSTANTIATE_TEST_SUITE_P(AllEngines, GcEngineTest,
                         ::testing::Values("bf-mhd", "cdc", "bimodal",
                                           "subchunk", "sparseindexing",
                                           "fbc", "extremebinning"));

}  // namespace
}  // namespace mhd
