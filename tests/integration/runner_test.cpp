#include "mhd/sim/runner.h"

#include <gtest/gtest.h>

#include "mhd/workload/presets.h"

namespace mhd {
namespace {

EngineConfig small_config() {
  EngineConfig cfg;
  cfg.ecs = 512;
  cfg.sd = 8;
  cfg.bloom_bytes = 64 * 1024;
  return cfg;
}

TEST(Runner, MakeEngineKnowsAllNames) {
  MemoryBackend backend;
  ObjectStore store(backend);
  for (const auto& name : engine_names()) {
    auto engine = make_engine(name, store, small_config());
    ASSERT_NE(engine, nullptr) << name;
    EXPECT_FALSE(engine->name().empty());
  }
}

TEST(Runner, MakeEngineRejectsUnknown) {
  MemoryBackend backend;
  ObjectStore store(backend);
  EXPECT_THROW(make_engine("nope", store, small_config()),
               std::invalid_argument);
}

TEST(Runner, BfMhdForcesBloom) {
  MemoryBackend backend;
  ObjectStore store(backend);
  EngineConfig cfg = small_config();
  cfg.use_bloom = false;
  auto engine = make_engine("bf-mhd", store, cfg);
  EXPECT_EQ(engine->name(), "BF-MHD");
  EXPECT_TRUE(engine->config().use_bloom);
}

// Every algorithm runs a corpus end-to-end with verification enabled.
class RunnerAllEnginesTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RunnerAllEnginesTest, VerifiedRunProducesSaneResult) {
  RunSpec spec;
  spec.algorithm = GetParam();
  spec.engine = small_config();
  spec.verify = true;
  const Corpus corpus(test_preset(42));
  const ExperimentResult r = run_experiment(spec, corpus);

  EXPECT_EQ(r.input_bytes, corpus.total_bytes());
  EXPECT_GT(r.stored_data_bytes, 0u);
  EXPECT_LE(r.stored_data_bytes, r.input_bytes);
  EXPECT_GT(r.data_only_der(), 1.0);
  EXPECT_GT(r.real_der(), 1.0);
  EXPECT_GT(r.metadata_ratio(), 0.0);
  EXPECT_GT(r.throughput_ratio(), 0.0);
  EXPECT_GT(r.counters.dup_slices, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllEngines, RunnerAllEnginesTest,
                         ::testing::ValuesIn(engine_names()));

TEST(Runner, MhdFindsComparableDuplicationWithLessMetadata) {
  const Corpus corpus(test_preset(43));
  RunSpec spec;
  spec.engine = small_config();

  spec.algorithm = "bf-mhd";
  const auto mhd = run_experiment(spec, corpus);
  spec.algorithm = "cdc";
  const auto cdc = run_experiment(spec, corpus);

  EXPECT_LT(mhd.metadata_ratio(), cdc.metadata_ratio());
  EXPECT_GT(mhd.counters.dup_bytes, cdc.counters.dup_bytes / 2);
  // The headline claim: best REAL DER for MHD on this workload shape.
  EXPECT_GT(mhd.real_der(), cdc.real_der());
}

// Physical data bytes are read from the layers run_experiment stacks:
// framing adds record headers and seals below the logical view, and a
// container layer moves chunk bytes into packed container streams.
TEST(Runner, PhysicalBytesFollowTheStack) {
  const Corpus corpus(test_preset(44));
  for (const bool framed : {false, true}) {
    for (const std::uint64_t container_bytes :
         {std::uint64_t{0}, std::uint64_t{1} << 20}) {
      SCOPED_TRACE(std::string(framed ? "framed" : "bare") + ", containers " +
                   std::to_string(container_bytes));
      RunSpec spec;
      spec.engine = small_config();
      spec.engine.framed = framed;
      spec.engine.container_bytes = container_bytes;
      const ExperimentResult r = run_experiment(spec, corpus);

      EXPECT_EQ(r.framed, framed);
      if (framed) {
        EXPECT_GT(r.physical_data_bytes, r.stored_data_bytes);
      } else if (container_bytes == 0) {
        EXPECT_EQ(r.physical_data_bytes, r.stored_data_bytes);
      } else {
        EXPECT_EQ(r.physical_data_bytes, r.container_packed_bytes);
      }
      EXPECT_EQ(r.containers_sealed > 0, container_bytes != 0);
    }
  }
}

// SubChunk, SparseIndexing and Extreme Binning keep their own indexes: the
// CLIs refuse a disk or sampled tier for them instead of ignoring it.
TEST(RequireIndexTier, RefusesATierTheEngineIgnores) {
  for (const IndexImpl tier : {IndexImpl::kDisk, IndexImpl::kSampled}) {
    EngineConfig cfg;
    cfg.index_impl = tier;
    for (const char* algo : {"subchunk", "sparseindexing", "extremebinning"}) {
      try {
        require_index_tier(algo, cfg);
        ADD_FAILURE() << algo << " accepted the tier";
      } catch (const FlagError& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(algo), std::string::npos) << what;
        EXPECT_NE(what.find(tier == IndexImpl::kDisk ? "disk" : "sampled"),
                  std::string::npos)
            << what;
      }
    }
    for (const char* algo : {"mhd", "bf-mhd", "cdc", "bimodal", "fbc"}) {
      EXPECT_NO_THROW(require_index_tier(algo, cfg)) << algo;
    }
  }
  for (const char* algo : {"subchunk", "sparseindexing", "extremebinning"}) {
    EXPECT_NO_THROW(require_index_tier(algo, EngineConfig{})) << algo;
  }
}

}  // namespace
}  // namespace mhd
