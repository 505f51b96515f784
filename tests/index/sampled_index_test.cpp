// Engine-level acceptance for the sampled similarity index tier
// (--index-impl=sampled).
//
// The tier trades dedup completeness for RAM: only sampled fingerprints
// (hooks) survive cache eviction, so some duplicates are stored again.
// What these tests pin:
//
//  * every file restores byte-exactly no matter how much the tier misses
//    (loss is a ratio cost, never a correctness cost);
//  * the loss is bounded and MEASURED — the gap between an exact in-RAM
//    run and the sampled run stays under a declared bound per sample
//    rate, and the tier's own loss meter reports a nonzero miss count
//    whenever a gap exists;
//  * a warm restart of the sampled tier is bit-identical to an
//    uninterrupted run on every user-visible namespace;
//  * a torn shadow-page commit (state or meta) is found by fsck, repaired
//    by rebuilding from the hooks namespace, and the repository ingests
//    and restores correctly afterwards;
//  * GC rebuilds the hook table so swept manifests cannot resurrect via
//    stale champion references;
//  * the sampled tier and the disk tier coexist under Ns::kIndex —
//    rebuilding the sampled tier spares the disk tier's warm list, and
//    gc's deletion of the disk tier spares the sampled family.
#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "mhd/index/persistent_index.h"
#include "mhd/index/sampled_index.h"
#include "mhd/sim/runner.h"
#include "mhd/store/fault_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/maintenance.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/scrub.h"
#include "mhd/workload/presets.h"

namespace mhd {
namespace {

CorpusConfig sampled_corpus() {
  CorpusConfig c = test_preset(73);
  c.machines = 2;
  c.snapshots = 3;
  return c;
}

EngineConfig engine_config(IndexImpl impl, std::uint32_t sample_bits = 4) {
  EngineConfig cfg;
  cfg.ecs = 1024;
  cfg.sd = 8;
  cfg.bloom_bytes = 64 * 1024;
  cfg.manifest_cache_bytes = 32 << 10;  // small enough to force evictions
  cfg.index_impl = impl;
  cfg.sample_bits = sample_bits;
  return cfg;
}

/// Ingests corpus files [first, last) through one fresh engine instance,
/// then destroys it (the close). Returns (counters, manifest_loads).
std::pair<EngineCounters, std::uint64_t> ingest_range(
    const std::string& engine_name, const EngineConfig& cfg,
    const Corpus& corpus, std::size_t first, std::size_t last,
    StorageBackend& backend) {
  ObjectStore store(backend);
  auto engine = make_engine(engine_name, store, cfg);
  for (std::size_t i = first; i < last; ++i) {
    auto src = corpus.open(i);
    engine->add_file(corpus.files()[i].name, *src);
  }
  engine->finish();
  return {engine->counters(), engine->manifest_loads()};
}

void expect_all_restores_byte_exact(const std::string& engine_name,
                                    const EngineConfig& cfg,
                                    const Corpus& corpus,
                                    StorageBackend& backend) {
  ObjectStore store(backend);
  auto engine = make_engine(engine_name, store, cfg);
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    auto src = corpus.open(i);
    const ByteVec original = read_all(*src);
    const auto restored = engine->reconstruct(corpus.files()[i].name);
    ASSERT_TRUE(restored.has_value()) << corpus.files()[i].name;
    ASSERT_TRUE(equal(*restored, original)) << corpus.files()[i].name;
  }
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

// ---------------------------------------------------------------------------
// Differential: sampled vs exact in-RAM index, same engine, same corpus.

class SampledDifferentialTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SampledDifferentialTest, RestoresByteExactAndLossIsBoundedAndMeasured) {
  const std::string engine_name = GetParam();
  const Corpus corpus(sampled_corpus());

  MemoryBackend mem_backend;
  const auto [mem_counters, mem_loads] =
      ingest_range(engine_name, engine_config(IndexImpl::kMem), corpus, 0,
                   corpus.files().size(), mem_backend);

  MemoryBackend sampled_backend;
  const EngineConfig scfg = engine_config(IndexImpl::kSampled, 4);
  const auto [s_counters, s_loads] = ingest_range(
      engine_name, scfg, corpus, 0, corpus.files().size(), sampled_backend);

  // Correctness is never traded: every file restores byte-exactly.
  expect_all_restores_byte_exact(engine_name, scfg, corpus, sampled_backend);

  // Sampling can only lose duplicates relative to the exact index, and the
  // loss stays within the declared bound for this sample rate.
  EXPECT_LE(s_counters.dup_bytes, mem_counters.dup_bytes);
  EXPECT_GT(s_counters.dup_bytes, 0u) << "tier found no duplicates at all";
  const std::uint64_t gap = mem_counters.dup_bytes - s_counters.dup_bytes;
  EXPECT_LE(static_cast<double>(gap),
            0.60 * static_cast<double>(mem_counters.dup_bytes))
      << "sampled tier lost more than 60% of exact dedup at sample_bits=4";

  // The loss is measured, not hidden: whenever the sampled run stored
  // bytes an exact run deduplicated, its own loss meter says so.
  ObjectStore store(sampled_backend);
  auto engine = make_engine(engine_name, store, scfg);
  const auto* sampled =
      dynamic_cast<const SampledIndex*>(engine->fingerprint_index());
  ASSERT_NE(sampled, nullptr);
  if (gap > 0) {
    EXPECT_GT(sampled->missed_dup_bytes(), 0u)
        << "exact run deduped " << gap << " more bytes but the loss meter "
        << "reports no missed duplicates";
  }

  // Both stores hold the same logical data.
  EXPECT_EQ(mem_counters.input_bytes, s_counters.input_bytes);
  EXPECT_GE(sampled_backend.content_bytes(Ns::kDiskChunk),
            mem_backend.content_bytes(Ns::kDiskChunk));
}

INSTANTIATE_TEST_SUITE_P(
    SampledEngines, SampledDifferentialTest,
    testing::Values("mhd", "bf-mhd", "cdc", "bimodal", "fbc"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// Loss must respond to the sampling rate: a denser rate (fewer sample
// bits) is never allowed to lose more than a declared fraction, and the
// bound loosens as the table gets sparser.
TEST(SampledLossBound, DeclaredBoundPerSampleRate) {
  const Corpus corpus(sampled_corpus());
  MemoryBackend mem_backend;
  const auto [mem_counters, mem_loads] =
      ingest_range("bf-mhd", engine_config(IndexImpl::kMem), corpus, 0,
                   corpus.files().size(), mem_backend);
  ASSERT_GT(mem_counters.dup_bytes, 0u);

  const struct {
    std::uint32_t bits;
    double max_loss;
  } rates[] = {{2, 0.50}, {4, 0.60}, {6, 0.80}};
  for (const auto& rate : rates) {
    MemoryBackend backend;
    const EngineConfig cfg = engine_config(IndexImpl::kSampled, rate.bits);
    const auto [counters, loads] = ingest_range(
        "bf-mhd", cfg, corpus, 0, corpus.files().size(), backend);
    EXPECT_LE(counters.dup_bytes, mem_counters.dup_bytes);
    const double loss =
        static_cast<double>(mem_counters.dup_bytes - counters.dup_bytes) /
        static_cast<double>(mem_counters.dup_bytes);
    EXPECT_LE(loss, rate.max_loss) << "sample_bits=" << rate.bits;
    expect_all_restores_byte_exact("bf-mhd", cfg, corpus, backend);
  }
}

// ---------------------------------------------------------------------------
// Warm restart: closing between generations changes nothing user-visible.

class SampledWarmRestartTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SampledWarmRestartTest, RestartedRunIsBitIdenticalToUninterrupted) {
  const std::string engine_name = GetParam();
  const Corpus corpus(sampled_corpus());
  const std::size_t split = corpus.files().size() / 2;
  ASSERT_GT(split, 0u);
  const EngineConfig cfg = engine_config(IndexImpl::kSampled, 4);

  // Run A: one uninterrupted sampled engine.
  MemoryBackend solid_backend;
  const auto [solid_counters, solid_loads] =
      ingest_range(engine_name, cfg, corpus, 0, corpus.files().size(),
                   solid_backend);

  // Run B: same corpus with a full process close between the generations.
  MemoryBackend split_backend;
  const auto [gen1_counters, gen1_loads] =
      ingest_range(engine_name, cfg, corpus, 0, split, split_backend);
  ASSERT_TRUE(SampledIndex::present(split_backend));
  const auto [gen2_counters, gen2_loads] = ingest_range(
      engine_name, cfg, corpus, split, corpus.files().size(), split_backend);

  // Identical user-visible stores: every data/metadata object bit-equal
  // (the index namespace legitimately differs in generation numbers).
  for (const Ns ns :
       {Ns::kDiskChunk, Ns::kHook, Ns::kManifest, Ns::kFileManifest}) {
    expect_namespace_identical(solid_backend, split_backend, ns);
  }
  // Identical dedup decisions, including across the restart boundary.
  expect_counters_equal(solid_counters, sum(gen1_counters, gen2_counters));
  // The warm restart restores the residency, so the reopened run loads no
  // manifest the uninterrupted run didn't.
  EXPECT_EQ(solid_loads, gen1_loads + gen2_loads);

  // The restarted tier is self-consistent on top of being equivalent.
  const auto report = check_sampled_index(split_backend);
  EXPECT_TRUE(report.meta_ok);
  EXPECT_EQ(report.stale_champions, 0u);
  EXPECT_EQ(report.corrupt_objects, 0u);
  EXPECT_GT(report.hook_entries, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SampledEngines, SampledWarmRestartTest,
    testing::Values("mhd", "bf-mhd", "cdc", "bimodal", "fbc"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      name.erase(std::remove(name.begin(), name.end(), '-'), name.end());
      return name;
    });

// ---------------------------------------------------------------------------
// Crash window: the shadow-paged flush tears mid-commit.
//
// flush() writes sampled-state-g<G+1> (op 1), commits sampled-meta (op 2),
// then removes the old state (op 3). Tearing op 1 leaves a committed meta
// naming an unreadable state; tearing op 2 leaves a torn commit point.
// Both must be found by fsck, repaired by a rebuild from the hooks
// namespace, and leave a repository that ingests and restores correctly.

class SampledTornFlushTest : public ::testing::TestWithParam<int> {};

TEST_P(SampledTornFlushTest, FsckRepairsTornCommitAndRepoStaysUsable) {
  const int torn_op = GetParam();
  const Corpus corpus(sampled_corpus());
  const std::size_t split = corpus.files().size() / 2;
  const EngineConfig cfg = engine_config(IndexImpl::kSampled, 4);

  MemoryBackend raw;
  {
    FramedBackend framed(raw);
    ingest_range("bf-mhd", cfg, corpus, 0, split, framed);
  }
  ASSERT_TRUE(fsck_repository(raw, /*repair=*/false).clean());

  // Re-open the tier through a fault plan that tears the torn_op-th
  // mutating write of the next flush — the seeded tear fraction makes the
  // damage deterministic.
  {
    FaultInjectingBackend faulty(
        raw, FaultPlan::parse("torn@" + std::to_string(torn_op) +
                              ":0.4,seed:9"));
    FramedBackend framed(faulty);
    SampledIndexConfig scfg;
    scfg.sample_bits = cfg.sample_bits;
    SampledIndex index(framed, scfg);
    index.flush();
  }

  // fsck finds the torn object and repairs by rebuilding from the hooks.
  const FsckReport before = fsck_repository(raw, /*repair=*/false);
  EXPECT_FALSE(before.clean()) << "tear at op " << torn_op << " not detected";
  const FsckReport repair = fsck_repository(raw, /*repair=*/true);
  EXPECT_GT(repair.repaired, 0u);
  EXPECT_TRUE(fsck_repository(raw, /*repair=*/false).clean());

  // The repaired repository keeps working: generation 2 ingests through
  // the rebuilt tier and every file restores byte-exactly.
  {
    FramedBackend framed(raw);
    ASSERT_TRUE(SampledIndex::present(framed));
    ingest_range("bf-mhd", cfg, corpus, split, corpus.files().size(), framed);
    expect_all_restores_byte_exact("bf-mhd", cfg, corpus, framed);
    const auto report = check_sampled_index(framed);
    EXPECT_TRUE(report.meta_ok);
    EXPECT_EQ(report.stale_champions, 0u);
    EXPECT_EQ(report.corrupt_objects, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(TornOps, SampledTornFlushTest, testing::Values(1, 2),
                         [](const testing::TestParamInfo<int>& info) {
                           return info.param == 1 ? "TornState" : "TornMeta";
                         });

// ---------------------------------------------------------------------------
// GC: swept manifests must not resurrect through stale champion refs.

TEST(SampledGcInteraction, SweptChampionsAreDroppedAndRepoReusable) {
  const Corpus corpus(sampled_corpus());
  MemoryBackend backend;
  const EngineConfig cfg = engine_config(IndexImpl::kSampled, 4);
  ingest_range("bf-mhd", cfg, corpus, 0, corpus.files().size(), backend);
  ASSERT_EQ(check_sampled_index(backend).stale_champions, 0u);

  std::vector<std::size_t> deleted;
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    ASSERT_TRUE(delete_file(backend, corpus.files()[i].name));
    deleted.push_back(i);
  }
  const GcReport gc = collect_garbage(backend);
  EXPECT_TRUE(gc.sampled_index_rebuilt);
  EXPECT_GT(gc.deleted_manifests, 0u);
  EXPECT_GT(gc.dropped_sampled_champions, 0u);

  // No champion may survive pointing at a swept manifest — that reference
  // would hand a reopened engine a dangling duplicate source.
  const auto after_gc = check_sampled_index(backend);
  EXPECT_TRUE(after_gc.meta_ok);
  EXPECT_EQ(after_gc.stale_champions, 0u);

  // Reopen and re-ingest: the tier must re-learn the hooks, and every
  // file must restore byte-exactly.
  {
    ObjectStore store(backend);
    auto engine = make_engine("bf-mhd", store, cfg);
    for (const std::size_t i : deleted) {
      auto src = corpus.open(i);
      engine->add_file(corpus.files()[i].name, *src);
    }
    engine->finish();
  }
  expect_all_restores_byte_exact("bf-mhd", cfg, corpus, backend);
  const auto final_report = check_sampled_index(backend);
  EXPECT_TRUE(final_report.meta_ok);
  EXPECT_EQ(final_report.stale_champions, 0u);
  const auto fsck =
      fsck_repository(backend, /*repair=*/false, {}, /*framed=*/false);
  EXPECT_TRUE(fsck.clean()) << fsck.to_string();
}

// ---------------------------------------------------------------------------
// Namespace coexistence: disk tier and sampled tier share Ns::kIndex.

TEST(SampledDiskCoexistence, RebuildingEitherTierSparesTheOther) {
  const Corpus corpus(sampled_corpus());
  const std::size_t split = corpus.files().size() / 2;
  MemoryBackend backend;

  // Generation 1 builds the sampled tier; generation 2 (a disk-index
  // engine over the same repository) saves the disk tier's warm list next
  // to it under the same namespace.
  ingest_range("bf-mhd", engine_config(IndexImpl::kSampled, 4), corpus, 0,
               split, backend);
  ingest_range("bf-mhd", engine_config(IndexImpl::kDisk), corpus, split,
               corpus.files().size(), backend);
  ASSERT_TRUE(SampledIndex::present(backend));
  ASSERT_TRUE(PersistentIndex::present(backend));
  EXPECT_TRUE(check_sampled_index(backend).meta_ok);
  const auto warm = PersistentIndex(backend).load_warm_list();
  ASSERT_FALSE(warm.empty());

  // Rebuilding the sampled tier must not disturb the disk tier...
  rebuild_sampled_index(backend);
  EXPECT_TRUE(check_sampled_index(backend).meta_ok);
  EXPECT_EQ(PersistentIndex(backend).load_warm_list(), warm);

  // ...and gc, which deletes the disk tier, must leave the sampled tier
  // whole.
  collect_garbage(backend);
  EXPECT_FALSE(PersistentIndex::present(backend));
  const auto sampled_after = check_sampled_index(backend);
  EXPECT_TRUE(sampled_after.meta_ok);
  EXPECT_EQ(sampled_after.corrupt_objects, 0u);
  EXPECT_GT(sampled_after.hook_entries, 0u);
  for (const auto& name : backend.list(Ns::kIndex)) {
    EXPECT_EQ(name.rfind("sampled-", 0), 0u) << name;
  }

  expect_all_restores_byte_exact(
      "bf-mhd", engine_config(IndexImpl::kSampled, 4), corpus, backend);
}

}  // namespace
}  // namespace mhd
