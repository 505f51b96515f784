// Opening a repository reads no object. Building FileBackend →
// FramedBackend → [ContainerBackend] over a populated framed repository
// must not read a DiskChunk, container, hook, manifest, file manifest or
// index object: FramedBackend sizes objects only when asked. The one read
// allowed is ContainerBackend adopting each committed chunk map once.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "counting_backend.h"
#include "mhd/core/mhd_engine.h"
#include "mhd/repo/repository.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

namespace fs = std::filesystem;

class OpenCostTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    root_ = fs::temp_directory_path() /
            ("mhd_open_cost_" + std::to_string(::getpid()) + "_" +
             std::to_string(GetParam()));
    fs::remove_all(root_);
    cfg_.ecs = 4096;
    cfg_.sd = 64;
    cfg_.framed = true;
    cfg_.container_bytes = GetParam();
    cfg_.index_impl = IndexImpl::kDisk;
  }
  void TearDown() override { fs::remove_all(root_); }

  /// Three 1 MiB images, the later ones edits of the first, so the
  /// repository holds duplicates, hooks, manifests and index objects.
  void populate() {
    FileBackend file(root_);
    BackendStack stack(file, cfg_);
    ObjectStore store(stack.top(), stack.containers());
    MhdEngine engine(store, cfg_);
    ByteVec image(1 << 20);
    Xoshiro256 rng(23);
    for (auto& b : image) b = static_cast<Byte>(rng());
    for (int i = 0; i < 3; ++i) {
      for (std::size_t at = 4096 * (i + 1); at < image.size(); at += 96 << 10) {
        image[at] ^= 0xFF;
      }
      MemorySource src(image);
      engine.add_file("image" + std::to_string(i), src);
    }
    engine.finish();
  }

  fs::path root_;
  EngineConfig cfg_;
};

TEST_P(OpenCostTest, BuildingTheStackReadsNoObject) {
  populate();
  FileBackend file(root_);
  CountingBackend counting(file);
  const BackendStack stack(counting, cfg_);
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    const Ns ns = static_cast<Ns>(i);
    if (ns == Ns::kChunkMap) continue;
    EXPECT_EQ(counting.reads(ns), 0u) << ns_name(ns);
  }
  // The namespaces the open must not read are populated.
  const Ns data = cfg_.container_bytes != 0 ? Ns::kContainer : Ns::kDiskChunk;
  for (const Ns ns : {data, Ns::kHook, Ns::kManifest, Ns::kFileManifest,
                      Ns::kIndex}) {
    EXPECT_GT(file.object_count(ns), 0u) << ns_name(ns);
  }
  EXPECT_EQ(counting.reads(Ns::kChunkMap), file.object_count(Ns::kChunkMap));
  if (cfg_.container_bytes != 0) {
    EXPECT_GT(counting.reads(Ns::kChunkMap), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Layouts, OpenCostTest,
                         ::testing::Values(0, std::uint64_t{1} << 20),
                         [](const auto& info) {
                           return info.param == 0 ? std::string("bare")
                                                  : std::string("containers");
                         });

}  // namespace
}  // namespace mhd
