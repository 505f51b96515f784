// retention_policy — the operational lifecycle of a deduplicating backup
// store: nightly backups accumulate, a retention policy expires old ones,
// garbage collection reclaims the space, and fsck proves the survivors
// are intact. Exercises the maintenance subsystem (store/maintenance.h,
// store/scrub.h) on top of the BF-MHD engine.
//
//   ./retention_policy [--size_mb=24] [--keep_last=4] [--ecs=1024] [--sd=16]
#include <cstdio>

#include "mhd/core/mhd_engine.h"
#include "mhd/repo/repository.h"
#include "mhd/store/maintenance.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/scrub.h"
#include "mhd/util/flags.h"
#include "mhd/workload/presets.h"

namespace {

int run(int argc, char** argv) {
  using namespace mhd;
  const Flags flags(argc, argv);
  const auto size_mb = flags.get_uint("size_mb", 24, 1, 1 << 20);
  const auto keep_last =
      static_cast<std::uint32_t>(flags.get_int("keep_last", 4));

  EngineConfig cfg;
  cfg.ecs = 1024;
  cfg.sd = 16;
  cfg = read_ecs_sd_flags(flags, cfg);

  const Corpus corpus(icpp13_preset(size_mb, 1));
  const auto& ccfg = corpus.config();
  std::printf("ingesting %u machines x %u nights (%.1f MB)...\n",
              ccfg.machines, ccfg.snapshots, corpus.total_bytes() / 1048576.0);

  MemoryBackend backend;
  {
    ObjectStore store(backend);
    MhdEngine engine(store, cfg);
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      auto src = corpus.open(i);
      engine.add_file(corpus.files()[i].name, *src);
    }
    engine.finish();
  }
  const auto before_chunks = backend.content_bytes(Ns::kDiskChunk);
  std::printf("stored: %.1f MB data, %llu objects\n",
              before_chunks / 1048576.0,
              static_cast<unsigned long long>(backend.total_objects()));

  // Retention: keep only the last `keep_last` nights of every machine.
  std::uint32_t expired = 0;
  for (const auto& f : corpus.files()) {
    if (f.snapshot + keep_last < ccfg.snapshots) {
      if (delete_file(backend, f.name)) ++expired;
    }
  }
  std::printf("retention: expired %u backups (keeping last %u nights)\n",
              expired, keep_last);

  const auto gc = collect_garbage(backend);
  std::printf("gc: reclaimed %.2f MB in %llu chunks (%llu live kept); "
              "%llu manifests, %llu hooks removed\n",
              gc.reclaimed_bytes / 1048576.0,
              static_cast<unsigned long long>(gc.deleted_chunks),
              static_cast<unsigned long long>(gc.live_chunks),
              static_cast<unsigned long long>(gc.deleted_manifests),
              static_cast<unsigned long long>(gc.deleted_hooks));
  std::printf("store is now %.1f MB (was %.1f MB)\n",
              backend.content_bytes(Ns::kDiskChunk) / 1048576.0,
              before_chunks / 1048576.0);

  // Survivors must restore byte-exactly and the repository must fsck
  // clean. Note: early backups' data that later backups deduplicated
  // against is still referenced, so it survives GC — deleting a backup
  // never harms another.
  ObjectStore store(backend);
  MhdEngine engine(store, cfg);
  std::size_t verified = 0;
  for (std::size_t i = 0; i < corpus.files().size(); ++i) {
    const auto& f = corpus.files()[i];
    if (f.snapshot + keep_last < ccfg.snapshots) continue;
    auto src = corpus.open(i);
    const ByteVec original = read_all(*src);
    const auto restored = engine.reconstruct(f.name);
    if (!restored || !equal(*restored, original)) {
      std::printf("RESTORE FAILED: %s\n", f.name.c_str());
      return 1;
    }
    ++verified;
  }
  const auto report =
      fsck_repository(backend, /*repair=*/false, {}, /*framed=*/false);
  std::printf("verified %zu surviving backups byte-exactly; fsck: %s\n",
              verified, report.clean() ? "CLEAN" : "PROBLEMS FOUND");
  return report.clean() ? 0 : 1;
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
