// Fault injection and resource-starvation tests: engines must stay
// correct (byte-exact restores, no crashes) when metadata is corrupted or
// caches are pathologically small — losing only deduplication
// opportunities, never data.
#include <gtest/gtest.h>

#include "engine_test_util.h"
#include "mhd/core/mhd_engine.h"
#include "mhd/dedup/cdc_engine.h"
#include "mhd/sim/runner.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/framing.h"
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

TEST(FaultInjection, CorruptedHookPayloadsAreIgnored) {
  MemoryBackend backend;
  const ByteVec data = random_bytes(120000, 1);
  {
    ObjectStore store(backend);
    MhdEngine engine(store, small_config());
    MemorySource src(data);
    engine.add_file("a", src);
    engine.finish();
  }
  // Truncate every hook payload (invalid manifest addresses).
  for (const auto& name : backend.list(Ns::kHook)) {
    backend.put(Ns::kHook, name, ByteVec{0x01, 0x02});
  }
  ObjectStore store2(backend);
  MhdEngine engine2(store2, small_config());
  MemorySource src(data);
  engine2.add_file("b", src);  // must not crash; dedup may degrade
  engine2.finish();
  const auto ra = engine2.reconstruct("a");
  const auto rb = engine2.reconstruct("b");
  ASSERT_TRUE(ra.has_value());
  ASSERT_TRUE(rb.has_value());
  EXPECT_TRUE(equal(*ra, data));
  EXPECT_TRUE(equal(*rb, data));
}

TEST(FaultInjection, TruncatedManifestIsTreatedAsAbsent) {
  MemoryBackend backend;
  const ByteVec data = random_bytes(120000, 2);
  {
    ObjectStore store(backend);
    CdcEngine engine(store, small_config());
    MemorySource src(data);
    engine.add_file("a", src);
    engine.finish();
  }
  for (const auto& name : backend.list(Ns::kManifest)) {
    auto raw = *backend.get(Ns::kManifest, name);
    raw.resize(raw.size() / 3);
    backend.put(Ns::kManifest, name, raw);
  }
  ObjectStore store2(backend);
  CdcEngine engine2(store2, small_config());
  MemorySource src(data);
  engine2.add_file("b", src);  // hook hit -> manifest parse fails -> store
  engine2.finish();
  const auto rb = engine2.reconstruct("b");
  ASSERT_TRUE(rb.has_value());
  EXPECT_TRUE(equal(*rb, data));
}

TEST(FaultInjection, StarvedManifestCacheStaysCorrect) {
  // A 1-entry, 2 KB cache forces constant eviction, dirty write-back and
  // reload during MHD's extension work.
  EngineConfig cfg = small_config();
  cfg.manifest_cache_capacity = 1;
  cfg.manifest_cache_bytes = 2048;
  RunSpec spec;
  spec.algorithm = "bf-mhd";
  spec.engine = cfg;
  spec.verify = true;
  const Corpus corpus(test_preset(61));
  EXPECT_NO_THROW(run_experiment(spec, corpus));
}

TEST(FaultInjection, ExtremeConfigsStayCorrect) {
  const Corpus corpus(test_preset(62));
  for (const auto& algo : engine_names()) {
    RunSpec spec;
    spec.algorithm = algo;
    spec.engine.ecs = 256;
    spec.engine.sd = 2;  // smallest meaningful sample distance
    spec.engine.bloom_bytes = 1024;  // heavy false-positive pressure
    spec.engine.manifest_cache_capacity = 2;
    spec.verify = true;
    EXPECT_NO_THROW(run_experiment(spec, corpus)) << algo;
  }
}

TEST(FaultInjection, SparseIndexSingleManifestPerHook) {
  RunSpec spec;
  spec.algorithm = "sparseindexing";
  spec.engine = small_config();
  spec.engine.max_manifests_per_hook = 1;
  spec.engine.max_champions = 1;
  spec.verify = true;
  const Corpus corpus(test_preset(63));
  const auto r = run_experiment(spec, corpus);
  EXPECT_GT(r.counters.dup_bytes, 0u);
}

/// Flips one payload bit in every object of `ns` on the raw (framed-bytes)
/// backend, so the CRC32C trailer no longer matches.
void flip_bit_in_every(StorageBackend& raw, Ns ns) {
  for (const auto& name : raw.list(ns)) {
    auto bytes = *raw.get(ns, name);
    ASSERT_GT(bytes.size(), framing::kTrailerBytes);
    bytes[(bytes.size() - framing::kTrailerBytes) / 2] ^= 0x01;
    raw.put(ns, name, bytes);
  }
}

/// A corrupt hook on a framed store must read as a typed checksum failure
/// that the engine degrades to "no hook hit": ingest proceeds, the chunk
/// is stored as a non-duplicate, and the corruption_fallbacks metric
/// records every swallowed error. The restore path stays byte-exact.
TEST(FaultInjection, CorruptFramedHookDegradesToNonDuplicate) {
  MemoryBackend raw;
  const ByteVec data = random_bytes(120000, 3);
  {
    FramedBackend framed(raw);
    ObjectStore store(framed);
    MhdEngine engine(store, small_config());
    MemorySource src(data);
    engine.add_file("a", src);
    engine.finish();
  }
  flip_bit_in_every(raw, Ns::kHook);

  FramedBackend framed(raw);  // reopen: adoption scan tolerates the damage
  ObjectStore store(framed);
  MhdEngine engine(store, small_config());
  MemorySource src(data);
  engine.add_file("b", src);
  engine.finish();
  EXPECT_GT(engine.counters().corruption_fallbacks, 0u);
  const auto rb = engine.reconstruct("b");
  ASSERT_TRUE(rb.has_value());
  EXPECT_TRUE(equal(*rb, data));
}

/// Same contract one layer deeper: hooks are intact but every manifest
/// they point at is corrupt — the manifest load degrades instead of
/// killing the ingest, and the new file's own (fresh) metadata restores.
TEST(FaultInjection, CorruptFramedManifestDegradesToNonDuplicate) {
  MemoryBackend raw;
  const ByteVec data = random_bytes(120000, 4);
  {
    FramedBackend framed(raw);
    ObjectStore store(framed);
    CdcEngine engine(store, small_config());
    MemorySource src(data);
    engine.add_file("a", src);
    engine.finish();
  }
  flip_bit_in_every(raw, Ns::kManifest);

  FramedBackend framed(raw);
  ObjectStore store(framed);
  CdcEngine engine(store, small_config());
  MemorySource src(data);
  engine.add_file("b", src);
  engine.finish();
  EXPECT_GT(engine.counters().corruption_fallbacks, 0u);
  const auto rb = engine.reconstruct("b");
  ASSERT_TRUE(rb.has_value());
  EXPECT_TRUE(equal(*rb, data));
}

TEST(FaultInjection, ZeroByteAndOneByteFiles) {
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, small_config());
  const std::vector<NamedFile> files = {
      {"zero", {}}, {"one", {0x42}}, {"zero2", {}}, {"one2", {0x42}}};
  testutil::run_files(engine, files);
  testutil::expect_reconstructs(engine, files);
}

TEST(FaultInjection, FileOfIdenticalBytes) {
  // Constant content stresses the chunker's zero-run guard and produces
  // massive intra-file duplication.
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, small_config());
  const std::vector<NamedFile> files = {{"zeros", ByteVec(300000, 0)},
                                        {"ones", ByteVec(300000, 0xFF)}};
  testutil::run_files(engine, files);
  testutil::expect_reconstructs(engine, files);
  // Stored bytes far below input: the repeated max-size chunks collapse.
  EXPECT_LT(backend.content_bytes(Ns::kDiskChunk), 300000u);
}

// A source that fails mid-file: add_file must surface the original
// exception to its caller, not swallow it, hang or crash.
struct DiskOnFire : std::runtime_error {
  DiskOnFire() : std::runtime_error("disk on fire") {}
};

class ExplodingSource final : public ByteSource {
 public:
  std::size_t read(MutByteSpan out) override {
    if (calls_++ >= 2) throw DiskOnFire();
    std::fill(out.begin(), out.end(), Byte{0x5a});
    return out.size();
  }

 private:
  int calls_ = 0;
};

class FaultInjectionEngineTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(FaultInjectionEngineTest, SourceFailurePropagatesToCaller) {
  MemoryBackend backend;
  ObjectStore store(backend);
  const auto engine = make_engine(GetParam(), store, EngineConfig{});
  ExplodingSource src;
  EXPECT_THROW(engine->add_file("doomed.img", src), DiskOnFire);
}

std::vector<std::string> all_engines() {
  std::vector<std::string> names = engine_names();
  for (const auto& n : extension_engine_names()) names.push_back(n);
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllEngines, FaultInjectionEngineTest,
                         ::testing::ValuesIn(all_engines()));

}  // namespace
}  // namespace mhd
