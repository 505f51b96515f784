// End-to-end test on the real filesystem backend: the same engine code
// that runs in simulation must work against actual files on disk
// (the paper's user-space Ext3 prototype path).
#include <gtest/gtest.h>

#include <filesystem>

#include "mhd/repo/repository.h"
#include "mhd/sim/runner.h"
#include "mhd/store/file_backend.h"
#include "mhd/workload/presets.h"

namespace mhd {
namespace {

class FileBackendE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mhd_e2e_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::filesystem::path dir_;
};

TEST_F(FileBackendE2eTest, MhdCorpusRoundTripOnDisk) {
  CorpusConfig cfg = test_preset(31);
  cfg.machines = 3;
  cfg.snapshots = 3;
  const Corpus corpus(cfg);

  RunSpec spec;
  spec.algorithm = "bf-mhd";
  spec.engine.ecs = 1024;
  spec.engine.sd = 8;
  spec.engine.bloom_bytes = 64 * 1024;
  spec.verify = true;  // byte-exact reconstruction from real files

  FileBackend backend(dir_);
  BackendStack stack(backend, spec.engine);
  const auto r = run_experiment(spec, corpus, stack);
  EXPECT_GT(r.counters.dup_bytes, 0u);

  // The on-disk layout matches the paper's: four namespaces of
  // hash-addressable files.
  EXPECT_TRUE(std::filesystem::exists(dir_ / "diskchunks"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "hooks"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "manifests"));
  EXPECT_TRUE(std::filesystem::exists(dir_ / "filemanifests"));
  EXPECT_GT(backend.object_count(Ns::kDiskChunk), 0u);
  EXPECT_GT(backend.object_count(Ns::kHook), 0u);
}

TEST_F(FileBackendE2eTest, RepositorySurvivesReopen) {
  CorpusConfig cfg = test_preset(32);
  cfg.machines = 2;
  cfg.snapshots = 2;
  const Corpus corpus(cfg);

  EngineConfig ecfg;
  ecfg.ecs = 1024;
  ecfg.sd = 8;
  ecfg.bloom_bytes = 64 * 1024;

  {
    FileBackend backend(dir_);
    ObjectStore store(backend);
    auto engine = make_engine("bf-mhd", store, ecfg);
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      auto src = corpus.open(i);
      engine->add_file(corpus.files()[i].name, *src);
    }
    engine->finish();
  }

  // Fresh process: restore everything from disk only.
  FileBackend reopened(dir_);
  ObjectStore store(reopened);
  auto engine = make_engine("bf-mhd", store, ecfg);
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    auto src = corpus.open(i);
    const ByteVec original = read_all(*src);
    const auto restored = engine->reconstruct(corpus.files()[i].name);
    ASSERT_TRUE(restored.has_value()) << corpus.files()[i].name;
    EXPECT_TRUE(equal(*restored, original)) << corpus.files()[i].name;
  }
}

}  // namespace
}  // namespace mhd
