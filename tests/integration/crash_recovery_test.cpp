// Crash-recovery harness — the capstone of the durability story.
//
// For EVERY engine: ingest a corpus into a framed store with a
// deterministic crash-stop injected at the k-th storage mutation (with a
// partial final write, the nastiest case), then model a restart: adopt the
// surviving raw bytes, fsck --repair them, resume by re-ingesting the
// whole corpus through a fresh engine, and finally prove every file
// restores byte-identically. Repeated for crash points spread across the
// whole ingest — first op, middles, last op.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mhd/dedup/rewrite.h"
#include "mhd/sim/runner.h"
#include "mhd/store/container_store.h"
#include "mhd/store/fault_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/scrub.h"
#include "mhd/store/store_errors.h"
#include "mhd/workload/presets.h"

namespace mhd {
namespace {

CorpusConfig small_corpus() {
  CorpusConfig c = test_preset(91);
  c.machines = 2;
  c.snapshots = 2;
  return c;
}

EngineConfig engine_config() {
  EngineConfig cfg;
  cfg.ecs = 1024;
  cfg.sd = 8;
  cfg.bloom_bytes = 64 * 1024;
  return cfg;
}

/// Ingests the whole corpus through a fresh engine over `backend`.
/// Returns false if a crash-stop cut the ingest short.
bool ingest_all(const std::string& engine_name, const Corpus& corpus,
                StorageBackend& backend) {
  ObjectStore store(backend);
  auto engine = make_engine(engine_name, store, engine_config());
  try {
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      auto src = corpus.open(i);
      engine->add_file(corpus.files()[i].name, *src);
    }
    engine->finish();
  } catch (const CrashStopError&) {
    return false;
  }
  return true;
}

class CrashRecoveryTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CrashRecoveryTest, CrashAtEveryPhaseThenFsckThenResumeRestoresExactly) {
  const std::string engine_name = GetParam();
  const Corpus corpus(small_corpus());

  // Dry run on a scratch store to learn how many storage mutations a full
  // ingest performs — crash points are picked across that range.
  std::uint64_t total_ops = 0;
  {
    MemoryBackend scratch;
    FaultInjectingBackend counter(scratch, FaultPlan{});
    FramedBackend framed(counter);
    ASSERT_TRUE(ingest_all(engine_name, corpus, framed));
    total_ops = counter.mutation_ops();
  }
  ASSERT_GT(total_ops, 0u);

  std::set<std::uint64_t> crash_points = {1, total_ops / 4, total_ops / 2,
                                          3 * total_ops / 4, total_ops};
  crash_points.erase(0);

  for (const std::uint64_t k : crash_points) {
    SCOPED_TRACE(engine_name + " crash@" + std::to_string(k) + "/" +
                 std::to_string(total_ops));

    // The raw MemoryBackend survives the "process crash"; everything
    // layered on top is torn down and rebuilt, like a real restart.
    MemoryBackend raw;
    {
      FaultPlan plan;
      plan.crash = FaultPlan::Tear{k, 0.5};  // half the final write lands
      FaultInjectingBackend faulty(raw, plan);
      FramedBackend framed(faulty);
      ASSERT_FALSE(ingest_all(engine_name, corpus, framed))
          << "crash point beyond the ingest's op count";
    }

    // Restart: repair the surviving bytes, then require a clean bill.
    fsck_repository(raw, /*repair=*/true);
    const auto after = fsck_repository(raw, /*repair=*/false);
    EXPECT_TRUE(after.clean()) << after.to_string();

    // Resume: re-ingest everything (dedup makes it cheap), then every
    // file must restore byte-identically through the verifying reads.
    FramedBackend recovered(raw);
    ASSERT_TRUE(ingest_all(engine_name, corpus, recovered));

    ObjectStore store(recovered);
    auto engine = make_engine(engine_name, store, engine_config());
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      SCOPED_TRACE(corpus.files()[i].name);
      auto src = corpus.open(i);
      const ByteVec original = read_all(*src);
      const auto restored = engine->reconstruct(corpus.files()[i].name);
      ASSERT_TRUE(restored.has_value());
      ASSERT_TRUE(equal(*restored, original));
    }
  }
}

// --- Disk-tier index crash window -------------------------------------------
//
// The generic sweep above crashes at evenly spaced ops; this test aims the
// crash directly at the disk tier's one write, the warm list put at the
// end of an ingest. The repo must fsck clean (after repair), resume, and
// restore byte-exactly — the index is advisory and must never take user
// data down with it.

/// Records the (ns, name) of every mutating op, 1-based, in the exact
/// order FaultInjectingBackend counts them — so a test can aim crash@N at
/// a specific object class.
class RecordingBackend final : public StorageBackend {
 public:
  explicit RecordingBackend(StorageBackend& inner) : inner_(inner) {}

  void put(Ns ns, const std::string& name, ByteSpan data) override {
    note(ns, name);
    inner_.put(ns, name, data);
  }
  void append(Ns ns, const std::string& name, ByteSpan data) override {
    note(ns, name);
    inner_.append(ns, name, data);
  }
  bool remove(Ns ns, const std::string& name) override {
    note(ns, name);
    return inner_.remove(ns, name);
  }
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override {
    return inner_.get(ns, name);
  }
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override {
    return inner_.get_range(ns, name, offset, length);
  }
  bool exists(Ns ns, const std::string& name) const override {
    return inner_.exists(ns, name);
  }
  std::uint64_t object_count(Ns ns) const override {
    return inner_.object_count(ns);
  }
  std::uint64_t content_bytes(Ns ns) const override {
    return inner_.content_bytes(ns);
  }
  std::vector<std::string> list(Ns ns) const override {
    return inner_.list(ns);
  }
  void seal(Ns ns, const std::string& name) override {
    inner_.seal(ns, name);
  }

  /// 1-based op numbers in `ns` whose object name starts with `prefix`.
  std::vector<std::uint64_t> ops_with_prefix(Ns ns,
                                             const std::string& prefix) const {
    std::vector<std::uint64_t> out;
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      if (ops_[i].first == ns && ops_[i].second.rfind(prefix, 0) == 0) {
        out.push_back(i + 1);
      }
    }
    return out;
  }

 private:
  void note(Ns ns, const std::string& name) { ops_.emplace_back(ns, name); }

  StorageBackend& inner_;
  std::vector<std::pair<Ns, std::string>> ops_;
};

EngineConfig disk_index_config() {
  EngineConfig cfg = engine_config();
  cfg.index_impl = IndexImpl::kDisk;
  return cfg;
}

bool ingest_all_disk_index(const Corpus& corpus, StorageBackend& backend) {
  ObjectStore store(backend);
  try {
    auto engine = make_engine("bf-mhd", store, disk_index_config());
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      auto src = corpus.open(i);
      engine->add_file(corpus.files()[i].name, *src);
    }
    engine->finish();
  } catch (const CrashStopError&) {
    return false;
  }
  return true;
}

TEST(IndexCrashRecovery, CrashAtWarmListPutThenFsckRestoresExactly) {
  const Corpus corpus(small_corpus());

  // Dry run: map every mutation number to the object it wrote, so the
  // crash points below land exactly on the index ops we target.
  std::vector<std::uint64_t> target_ops;
  {
    MemoryBackend scratch;
    RecordingBackend recorder(scratch);
    FramedBackend framed(recorder);
    ASSERT_TRUE(ingest_all_disk_index(corpus, framed));
    target_ops = recorder.ops_with_prefix(Ns::kIndex, "warm");
  }
  ASSERT_FALSE(target_ops.empty()) << "ingest never wrote its warm list";

  for (const std::uint64_t k : target_ops) {
    SCOPED_TRACE("crash@" + std::to_string(k) + " (warm)");
    MemoryBackend raw;
    {
      FaultPlan plan;
      plan.crash = FaultPlan::Tear{k, 0.5};  // half the write lands
      FaultInjectingBackend faulty(raw, plan);
      FramedBackend framed(faulty);
      ASSERT_FALSE(ingest_all_disk_index(corpus, framed));
    }

    fsck_repository(raw, /*repair=*/true);
    const auto after = fsck_repository(raw, /*repair=*/false);
    EXPECT_TRUE(after.clean()) << after.to_string();

    FramedBackend recovered(raw);
    ASSERT_TRUE(ingest_all_disk_index(corpus, recovered));

    ObjectStore store(recovered);
    auto engine = make_engine("bf-mhd", store, disk_index_config());
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      SCOPED_TRACE(corpus.files()[i].name);
      auto src = corpus.open(i);
      const ByteVec original = read_all(*src);
      const auto restored = engine->reconstruct(corpus.files()[i].name);
      ASSERT_TRUE(restored.has_value());
      ASSERT_TRUE(equal(*restored, original));
    }
  }
}

// --- Container-store crash windows ----------------------------------------
//
// Crashes aimed directly at the container layer's durability machinery:
// mid container-stream append/seal (the packed data itself) and mid
// chunk-map commit (the chunk's durability point — under HAR this also
// covers rewrite commits). The committed-map invariant says a crash can
// only lose bytes no committed map references, so after fsck --repair the
// repo must be clean, resumable, and restore byte-exactly.

ContainerConfig crash_container_config() {
  ContainerConfig cc;
  cc.container_bytes = 64 << 10;  // small: several containers per image
  cc.cache_bytes = 1 << 20;
  return cc;
}

EngineConfig container_engine_config() {
  EngineConfig cfg = engine_config();
  cfg.container_bytes = 64 << 10;
  cfg.restore_cache_bytes = 1 << 20;
  // HAR so later generations rewrite duplicates: chunk-map crash points
  // then include rewrite commits, not just first-copy commits.
  cfg.rewrite = RewriteMode::kHar;
  return cfg;
}

bool ingest_all_containers(const Corpus& corpus, StorageBackend& lower) {
  try {
    FramedBackend framed(lower);
    ContainerBackend containers(framed, crash_container_config());
    ObjectStore store(containers, &containers);
    auto engine = make_engine("bf-mhd", store, container_engine_config());
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      if (i > 0 &&
          corpus.files()[i].snapshot != corpus.files()[i - 1].snapshot) {
        engine->end_snapshot();
      }
      auto src = corpus.open(i);
      engine->add_file(corpus.files()[i].name, *src);
    }
    engine->end_snapshot();
    engine->finish();
    containers.flush();
  } catch (const CrashStopError&) {
    return false;
  }
  return true;
}

void verify_container_restores(const Corpus& corpus, StorageBackend& raw) {
  FramedBackend framed(raw);
  ContainerBackend containers(framed, crash_container_config());
  ObjectStore store(containers, &containers);
  auto engine = make_engine("bf-mhd", store, container_engine_config());
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    SCOPED_TRACE(corpus.files()[i].name);
    auto src = corpus.open(i);
    const ByteVec original = read_all(*src);
    const auto restored = engine->reconstruct(corpus.files()[i].name);
    ASSERT_TRUE(restored.has_value());
    ASSERT_TRUE(equal(*restored, original));
  }
}

void crash_at_container_ops(Ns target_ns) {
  const Corpus corpus(small_corpus());

  std::vector<std::uint64_t> target_ops;
  {
    MemoryBackend scratch;
    RecordingBackend recorder(scratch);
    ASSERT_TRUE(ingest_all_containers(corpus, recorder));
    target_ops = recorder.ops_with_prefix(target_ns, "");
  }
  ASSERT_FALSE(target_ops.empty())
      << "ingest never touched " << ns_name(target_ns)
      << " — the container stack is not being exercised";

  std::set<std::uint64_t> crash_points = {
      target_ops.front(), target_ops[target_ops.size() / 2],
      target_ops.back()};

  for (const std::uint64_t k : crash_points) {
    SCOPED_TRACE("crash@" + std::to_string(k) + " (" + ns_name(target_ns) +
                 ")");
    MemoryBackend raw;
    {
      FaultPlan plan;
      plan.crash = FaultPlan::Tear{k, 0.5};  // half the final write lands
      FaultInjectingBackend faulty(raw, plan);
      ASSERT_FALSE(ingest_all_containers(corpus, faulty));
    }

    fsck_repository(raw, /*repair=*/true);
    const auto after = fsck_repository(raw, /*repair=*/false);
    EXPECT_TRUE(after.clean()) << after.to_string();

    ASSERT_TRUE(ingest_all_containers(corpus, raw));
    verify_container_restores(corpus, raw);
  }
}

TEST(ContainerCrashRecovery, CrashDuringContainerAppendOrSealThenFsckRestores) {
  crash_at_container_ops(Ns::kContainer);
}

TEST(ContainerCrashRecovery, CrashDuringChunkMapCommitThenFsckRestores) {
  crash_at_container_ops(Ns::kChunkMap);
}

std::vector<std::string> all_engines() {
  std::vector<std::string> engines = engine_names();
  const auto& extensions = extension_engine_names();
  engines.insert(engines.end(), extensions.begin(), extensions.end());
  return engines;
}

std::string pretty(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
  return name;
}

INSTANTIATE_TEST_SUITE_P(EveryEngine, CrashRecoveryTest,
                         testing::ValuesIn(all_engines()), pretty);

}  // namespace
}  // namespace mhd
