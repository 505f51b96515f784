// Restore correctness + fragmentation harness for the container store.
//
// Multi-generation backups through the real container stack, for every
// engine x rewrite mode:
//   * every file of every generation restores byte-exactly (rewriting
//     must never change restored bytes, only their placement);
//   * CFL of the rewrite modes never falls below the no-rewrite baseline
//     (that is the entire point of CBR/HAR);
//   * CBR's container reads stay within the capping bound;
//   * concurrent restores through the shared bounded cache, and through
//     one FramedBackend's record tables, are safe (exercised under TSan via
//     the `restore` ctest label);
//   * a framed restore of a fragmented file reads each stored byte about
//     once, not once per recipe entry.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "../store/counting_backend.h"
#include "mhd/dedup/rewrite.h"
#include "mhd/format/file_manifest.h"
#include "mhd/hash/sha1.h"
#include "mhd/sim/runner.h"
#include "mhd/store/container_store.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/restore_reader.h"
#include "mhd/util/random.h"
#include "mhd/workload/presets.h"

namespace mhd {
namespace {

constexpr std::uint64_t kContainerBytes = 128 << 10;
constexpr std::uint64_t kCacheBytes = 8 << 20;  // >> repo: no re-reads
constexpr std::uint32_t kCbrCap = 2;

CorpusConfig generations_corpus(std::uint32_t snapshots = 8) {
  CorpusConfig c = test_preset(17);
  c.machines = 2;
  c.snapshots = snapshots;  // >= 5 generations of accumulated fragmentation
  c.image_bytes = 256 << 10;
  return c;
}

EngineConfig container_config(RewriteMode mode) {
  EngineConfig cfg;
  cfg.ecs = 1024;
  cfg.sd = 8;
  cfg.bloom_bytes = 64 * 1024;
  cfg.container_bytes = kContainerBytes;
  cfg.restore_cache_bytes = kCacheBytes;
  cfg.rewrite = mode;
  cfg.cbr_segment_bytes = 256 << 10;  // one segment per corpus file
  cfg.cbr_cap = kCbrCap;
  cfg.har_utilization = 0.5;
  return cfg;
}

std::vector<std::string> all_engines() {
  std::vector<std::string> engines = engine_names();
  const auto& extensions = extension_engine_names();
  engines.insert(engines.end(), extensions.begin(), extensions.end());
  return engines;
}

/// Ingests the corpus (snapshot boundaries driving end_snapshot) and
/// verifies every file byte-exactly; returns the result with restore
/// metrics of the newest generation.
ExperimentResult run_mode(const std::string& engine, const Corpus& corpus,
                          RewriteMode mode) {
  RunSpec spec;
  spec.algorithm = engine;
  spec.engine = container_config(mode);
  spec.verify = true;  // byte-exact restore of EVERY file, all generations
  spec.measure_restore = true;
  return run_experiment(spec, corpus);
}

class RestoreFragmentationTest : public ::testing::TestWithParam<std::string> {
};

TEST_P(RestoreFragmentationTest, EveryRewriteModeRestoresByteExactly) {
  const Corpus corpus(generations_corpus(/*snapshots=*/5));
  for (const RewriteMode mode :
       {RewriteMode::kNone, RewriteMode::kCbr, RewriteMode::kHar}) {
    SCOPED_TRACE(std::string("rewrite=") + rewrite_mode_name(mode));
    // run_mode verifies byte-exact reconstruction of every file internally
    // (spec.verify) and throws on any mismatch.
    const ExperimentResult r = run_mode(GetParam(), corpus, mode);
    EXPECT_GT(r.restore.bytes, 0u);
    EXPECT_GT(r.containers_sealed, 0u);
    if (mode == RewriteMode::kNone) {
      EXPECT_EQ(r.counters.rewritten_chunks, 0u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(EveryEngine, RestoreFragmentationTest,
                         testing::ValuesIn(all_engines()),
                         [](const testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           name.erase(
                               std::remove(name.begin(), name.end(), '-'),
                               name.end());
                           return name;
                         });

// A rewrite mode decides from container placement, so every engine
// refuses one whose store carries no container layer instead of admitting
// every duplicate unseen.
TEST(RestoreFragmentation, RewriteWithoutContainerLayerIsRefused) {
  MemoryBackend mem;
  ObjectStore store(mem);
  for (const std::string& engine : all_engines()) {
    for (const RewriteMode mode : {RewriteMode::kCbr, RewriteMode::kHar}) {
      SCOPED_TRACE(engine + " rewrite=" + rewrite_mode_name(mode));
      EXPECT_THROW(make_engine(engine, store, container_config(mode)),
                   std::invalid_argument);
    }
  }
}

TEST(RestoreFragmentation, RewritingNeverWorsensLatestGenerationCfl) {
  const Corpus corpus(generations_corpus());
  const ExperimentResult none = run_mode("cdc", corpus, RewriteMode::kNone);
  const ExperimentResult cbr = run_mode("cdc", corpus, RewriteMode::kCbr);
  const ExperimentResult har = run_mode("cdc", corpus, RewriteMode::kHar);

  ASSERT_GT(none.restore.cfl, 0.0);
  // Non-strict with an epsilon: rewriting reshuffles placement, so tiny
  // regressions from rounding are tolerated — systematic ones are not.
  const double eps = 0.02;
  EXPECT_GE(cbr.restore.cfl, none.restore.cfl - eps)
      << "CBR made the latest generation MORE fragmented";
  EXPECT_GE(har.restore.cfl, none.restore.cfl - eps)
      << "HAR made the latest generation MORE fragmented";
  // The modes must actually have acted on this corpus, or the assertions
  // above are vacuous.
  EXPECT_GT(cbr.counters.rewritten_chunks, 0u);
  EXPECT_GT(har.counters.rewritten_chunks, 0u);
}

TEST(RestoreFragmentation, CbrContainerReadsStayWithinCappingBound) {
  const Corpus corpus(generations_corpus());
  const ExperimentResult r = run_mode("cdc", corpus, RewriteMode::kCbr);

  // Count the files (= CBR segments: segment size == file size here) of
  // the newest generation, the one measure_restore reads.
  std::uint64_t files = 0;
  for (const auto& f : corpus.files()) {
    if (f.snapshot == corpus.config().snapshots - 1) ++files;
  }
  ASSERT_GT(files, 0u);

  // Each segment may reference at most kCbrCap distinct old containers;
  // everything else it reads is freshly written data, which occupies at
  // most ceil(bytes / container) + 1 containers (write order is
  // sequential). The cache holds the whole repo, so no container is read
  // twice.
  const std::uint64_t fresh =
      (r.restore.bytes + kContainerBytes - 1) / kContainerBytes + 1;
  const std::uint64_t bound = files * kCbrCap + fresh;
  EXPECT_LE(r.restore.container_reads, bound)
      << "capping did not bound the newest generation's container spread";
  EXPECT_GT(r.restore.container_reads, 0u);
}

/// Drains a restore of `name`; nullopt if it cannot be opened or fails.
std::optional<ByteVec> restore_all(const StorageBackend& backend,
                                   const std::string& name) {
  auto reader = RestoreReader::open(backend, name);
  if (!reader) return std::nullopt;
  ByteVec out;
  ByteVec buf(64 << 10);
  std::size_t n;
  while ((n = reader->read({buf.data(), buf.size()})) > 0) {
    out.insert(out.end(), buf.begin(),
               buf.begin() + static_cast<std::ptrdiff_t>(n));
  }
  if (!reader->ok()) return std::nullopt;
  return out;
}

/// Ingests every corpus file into `backend` with `engine_name`.
void ingest_corpus(StorageBackend& backend, const Corpus& corpus,
                   const std::string& engine_name) {
  ObjectStore store(backend);
  auto engine =
      make_engine(engine_name, store, container_config(RewriteMode::kNone));
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    auto src = corpus.open(i);
    engine->add_file(corpus.files()[i].name, *src);
  }
  engine->finish();
}

/// Restores the corpus from four threads at once (strided subsets that
/// share objects) and expects every file byte-exact.
void expect_concurrent_restores_byte_exact(const StorageBackend& backend,
                                           const Corpus& corpus) {
  const std::size_t kThreads = 4;
  std::vector<int> failures(kThreads, 0);
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < corpus.files().size(); i += 2) {
        auto src = corpus.open(i);
        const auto out = restore_all(backend, corpus.files()[i].name);
        if (!out || !equal(*out, read_all(*src))) ++failures[t];
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], 0) << "worker " << t;
  }
}

TEST(RestoreFragmentation, ConcurrentRestoresThroughSharedCacheAreByteExact) {
  const Corpus corpus(generations_corpus(/*snapshots=*/5));

  MemoryBackend mem;
  ContainerConfig cc;
  cc.container_bytes = kContainerBytes;
  // Tight cache: concurrent readers constantly hit/evict the same LRU.
  cc.cache_bytes = 2 * kContainerBytes;
  ContainerBackend containers(mem, cc);
  ingest_corpus(containers, corpus, "cdc");
  containers.flush();
  expect_concurrent_restores_byte_exact(containers, corpus);
}

TEST(RestoreFragmentation, ConcurrentRestoresThroughFramedBackendAreByteExact) {
  const Corpus corpus(generations_corpus(/*snapshots=*/5));

  // No SyncBackend: the readers share FramedBackend's record-table cache
  // through concurrent const get_range calls. MHD keeps one many-record
  // DiskChunk per file, so most reads cover a few records of a table.
  MemoryBackend mem;
  FramedBackend framed(mem);
  ingest_corpus(framed, corpus, "mhd");
  expect_concurrent_restores_byte_exact(framed, corpus);
}

TEST(RestoreFragmentation, FramedRestoreReadsEachStoredByteAboutOnce) {
  // ~8 MiB whose second half repeats its first with a small edit every
  // 64 KiB: dozens of duplicate slices against the file's own DiskChunk.
  constexpr std::size_t kHalf = 4 << 20;
  ByteVec image(2 * kHalf);
  Xoshiro256 rng(2013);
  for (std::size_t i = 0; i < kHalf; ++i) image[i] = static_cast<Byte>(rng());
  std::copy(image.begin(), image.begin() + kHalf, image.begin() + kHalf);
  for (std::size_t at = kHalf + 1000; at < image.size(); at += 64 << 10) {
    image[at] ^= 0xFF;
  }

  CountingBackend mem;
  FramedBackend framed(mem);
  {
    EngineConfig cfg;
    cfg.sd = 64;  // the dedup_cli default
    ObjectStore store(framed);
    auto engine = make_engine("mhd", store, cfg);
    MemorySource src(image);
    engine->add_file("image", src);
    engine->finish();
  }
  const auto fm = FileManifest::deserialize(
      *framed.get(Ns::kFileManifest, Sha1::hash(as_bytes("image")).hex()));
  ASSERT_TRUE(fm.has_value());
  ASSERT_GE(fm->entries().size(), 24u) << "too few slices to guard anything";

  mem.reset_read_bytes();
  const auto out = restore_all(framed, "image");
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(equal(*out, image));
  // The first read of the DiskChunk loads it whole; every later entry
  // should cost only the records it covers.
  EXPECT_LE(static_cast<double>(mem.read_bytes()), 2.2 * image.size())
      << fm->entries().size() << " recipe entries";
}

}  // namespace
}  // namespace mhd
