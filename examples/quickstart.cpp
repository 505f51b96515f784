// Quickstart — the smallest useful MHD program.
//
// Generates a tiny synthetic backup corpus (3 machines x 3 nightly disk
// images), deduplicates it with BF-MHD through an in-memory store, prints
// the headline numbers, and proves the store is lossless by restoring one
// image byte-for-byte.
//
//   ./quickstart [--size_mb=8] [--ecs=2048] [--sd=32]
#include <cstdio>

#include "mhd/core/mhd_engine.h"
#include "mhd/metrics/metrics.h"
#include "mhd/repo/repository.h"
#include "mhd/store/memory_backend.h"
#include "mhd/util/flags.h"
#include "mhd/workload/presets.h"

namespace {

int run(int argc, char** argv) {
  using namespace mhd;
  const Flags flags(argc, argv);

  // 1. A corpus: 3 PCs backed up nightly for 3 days (~--size_mb total).
  CorpusConfig corpus_cfg;
  corpus_cfg.machines = 3;
  corpus_cfg.snapshots = 3;
  corpus_cfg.os_count = 2;
  corpus_cfg.image_bytes = std::max<std::uint64_t>(
      (flags.get_uint("size_mb", 8, 1, 1 << 20) << 20) / 9,
      256 << 10);
  const Corpus corpus(corpus_cfg);

  // 2. An engine: BF-MHD over an in-memory hash-addressable store.
  EngineConfig cfg;
  cfg.ecs = 2048;
  cfg.sd = 32;
  cfg = read_ecs_sd_flags(flags, cfg);
  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, cfg);

  // 3. Feed the backup stream file by file.
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    auto src = corpus.open(i);
    engine.add_file(corpus.files()[i].name, *src);
  }
  engine.finish();

  // 4. Headline numbers.
  const DiskModel disk;
  const auto r = summarize(engine.name(), engine, backend, disk);
  std::printf("deduplicated %zu disk images (%.1f MB)\n",
              corpus.files().size(), r.input_bytes / 1048576.0);
  std::printf("  stored data        : %.1f MB\n",
              r.stored_data_bytes / 1048576.0);
  std::printf("  metadata           : %.3f%% of input\n",
              r.metadata_ratio() * 100);
  std::printf("  data-only DER      : %.2f\n", r.data_only_der());
  std::printf("  real DER           : %.2f\n", r.real_der());
  std::printf("  duplicate slices   : %llu (DAD %.1f KB)\n",
              static_cast<unsigned long long>(r.counters.dup_slices),
              r.dad_bytes() / 1024.0);
  std::printf("  HHR re-chunkings   : %llu\n",
              static_cast<unsigned long long>(r.counters.hhr_operations));

  // 5. Restore an image and verify it byte-for-byte.
  const std::string& name = corpus.files().back().name;
  const auto restored = engine.reconstruct(name);
  auto src = corpus.open(corpus.files().size() - 1);
  const ByteVec original = read_all(*src);
  if (!restored || !equal(*restored, original)) {
    std::printf("RESTORE FAILED for %s\n", name.c_str());
    return 1;
  }
  std::printf("restore check      : %s restored byte-exactly (%zu bytes)\n",
              name.c_str(), restored->size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const mhd::FlagError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
