// backup_rotation — the paper's motivating scenario as a runnable demo.
//
// Simulates the full ICPP'13 workload shape: a fleet of 14 PCs (Windows /
// Linux / Mac groups) backed up nightly for two weeks, and compares all
// five algorithms on the same stream: per-day cumulative storage growth,
// final DER, metadata and modeled throughput. This is the "which dedup
// engine should my backup system use?" view of the library.
//
//   ./backup_rotation [--size_mb=48] [--ecs=1024] [--sd=32] [--seed=1]
#include <cstdio>

#include "mhd/metrics/metrics.h"
#include "mhd/repo/repository.h"
#include "mhd/sim/runner.h"
#include "mhd/util/flags.h"
#include "mhd/util/table.h"
#include "mhd/workload/presets.h"

namespace {

int run(int argc, char** argv) {
  using namespace mhd;
  const Flags flags(argc, argv);
  const auto size_mb = flags.get_uint("size_mb", 48, 1, 1 << 20);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  EngineConfig cfg;
  cfg.ecs = 1024;
  cfg.sd = 32;
  cfg = read_ecs_sd_flags(flags, cfg);
  cfg.manifest_cache_bytes = 256 << 10;
  cfg.manifest_cache_capacity = 4096;

  const Corpus corpus(icpp13_preset(size_mb, seed));
  std::printf("backup fleet: %u machines x %u nights, %.1f MB total\n\n",
              corpus.config().machines, corpus.config().snapshots,
              corpus.total_bytes() / 1048576.0);

  const DiskModel disk;
  TextTable summary({"Engine", "Stored MB", "Metadata MB", "Real DER",
                     "ThroughputRatio", "Dup slices", "HHR ops"});

  for (const auto& algo : engine_names()) {
    MemoryBackend backend;
    ObjectStore store(backend);
    auto engine = make_engine(algo, store, cfg);

    // Nightly rotation: print cumulative stored bytes after each night.
    std::printf("%s nightly stored-bytes growth (MB):", engine->name().c_str());
    std::uint32_t day = 0;
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      if (corpus.files()[i].snapshot != day) {
        std::printf(" %.1f", backend.content_bytes(Ns::kDiskChunk) / 1048576.0);
        day = corpus.files()[i].snapshot;
      }
      auto src = corpus.open(i);
      engine->add_file(corpus.files()[i].name, *src);
    }
    engine->finish();
    std::printf(" %.1f\n", backend.content_bytes(Ns::kDiskChunk) / 1048576.0);

    const auto r = summarize(engine->name(), *engine, backend, disk);
    summary.add_row(
        {r.algorithm, TextTable::num(r.stored_data_bytes / 1048576.0, 1),
         TextTable::num(r.metadata.total_bytes() / 1048576.0, 2),
         TextTable::num(r.real_der(), 2),
         TextTable::num(r.throughput_ratio(), 3),
         TextTable::num(r.counters.dup_slices),
         TextTable::num(r.counters.hhr_operations)});
  }

  std::printf("\n%s", summary.to_string().c_str());
  std::printf("\nNote how every engine's nightly growth flattens after night"
              " 1 (daily images mostly\nduplicate), and how BF-MHD reaches "
              "the best real DER with the least metadata.\n");
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
