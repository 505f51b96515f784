// Restore locality (extension) — the read-path consequence of metadata
// harnessing. The paper evaluates write throughput only; a backup system
// also has to restore. Two experiments:
//
//  1. Recipe positioning model: a restore performs one positioning per
//     FileManifest entry run and per container switch, so MHD's run-length
//     recipes restore with orders of magnitude fewer seeks than per-chunk
//     recipes, and SubChunk/SparseIndexing pay extra container switches
//     from their scattered-container layouts.
//
//  2. Container-store restore tradeoff: ingest the multi-generation corpus
//     through the real container store under --rewrite=none|cbr|har and
//     *actually restore* every generation through the bounded-cache
//     restore path, measuring restore MB/s, containers-read-per-MB and
//     CFL per generation — the fragmentation-accumulation curve the
//     rewrite algorithms exist to flatten — against the dedup ratio each
//     mode gave up. --json-out=FILE dumps the curve (BENCH_restore.json).
#include <fstream>

#include "bench_common.h"
#include "mhd/dedup/rewrite.h"
#include "mhd/format/file_manifest.h"
#include "mhd/repo/repository.h"

using namespace mhd;
using namespace mhd::bench;

namespace {

struct RestorePoint {
  std::string mode;
  std::uint32_t generation = 0;
  RestoreMetrics m;
};

struct ModeSummary {
  std::string mode;
  double real_der = 0;
  double rewrite_ratio = 0;
  std::uint64_t rewritten_bytes = 0;
  std::uint64_t containers_sealed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  BenchOptions o = BenchOptions::parse(argc, argv);
  const Flags flags(argc, argv);
  const std::uint32_t ecs =
      static_cast<std::uint32_t>(flags.get_int("table_ecs", 1024));
  print_header("Extension: restore locality",
               "run-length recipes (BF-MHD) need the fewest positionings "
               "per restored MB; CBR/HAR rewriting flattens the CFL decay "
               "across generations",
               o);
  const Corpus corpus = o.make_corpus();
  const DiskModel disk;

  TextTable t({"Algorithm", "Recipe entries", "Container switches",
               "Seeks per MB", "Modeled restore MB/s"});
  for (const auto& algo : engine_names()) {
    MemoryBackend backend;
    ObjectStore store(backend);
    auto engine = make_engine(algo, store, o.engine_config(ecs));
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      auto src = corpus.open(i);
      engine->add_file(corpus.files()[i].name, *src);
    }
    engine->finish();

    std::uint64_t entries = 0;
    std::uint64_t switches = 0;
    std::uint64_t bytes = 0;
    for (const auto& name : backend.list(Ns::kFileManifest)) {
      const auto raw = backend.get(Ns::kFileManifest, name);
      const auto fm = raw ? FileManifest::deserialize(*raw) : std::nullopt;
      if (!fm) continue;
      entries += fm->entries().size();
      bytes += fm->total_length();
      const Digest* prev = nullptr;
      for (const auto& e : fm->entries()) {
        if (prev == nullptr || !(*prev == e.chunk_name)) ++switches;
        prev = &e.chunk_name;
      }
    }
    // Restore cost model: one positioning per recipe entry plus the
    // sequential transfer of the restored bytes.
    const double seconds =
        static_cast<double>(entries) * disk.seek_seconds +
        static_cast<double>(bytes) / disk.read_bw;
    t.add_row({engine->name(), TextTable::num(entries),
               TextTable::num(switches),
               TextTable::num(static_cast<double>(entries) /
                                  (static_cast<double>(bytes) / 1048576.0),
                              1),
               TextTable::num(bytes / 1048576.0 / seconds, 1)});
  }
  std::printf("%s\n", t.to_string().c_str());

  // ---- Part 2: real restores through the container store ----
  const std::string algo = flags.get("algo", "bf-mhd");
  const std::uint64_t container_bytes =
      flags.get_size("container-mb", 1ull << 20, 64ull << 10, 1ull << 40,
                     /*unit=*/1ull << 20);
  const std::uint64_t cache_bytes =
      flags.get_size("restore-cache-mb", 8ull << 20, 64ull << 10, 1ull << 40,
                     /*unit=*/1ull << 20);

  std::printf("container-store restores: %s, %.1f MB containers, %.0f MB "
              "restore cache, %u generations\n\n",
              algo.c_str(), container_bytes / 1048576.0,
              cache_bytes / 1048576.0, corpus.config().snapshots);

  std::vector<RestorePoint> curve;
  std::vector<ModeSummary> summaries;
  for (const RewriteMode mode :
       {RewriteMode::kNone, RewriteMode::kCbr, RewriteMode::kHar}) {
    RunSpec spec = o.spec(algo, ecs);
    EngineConfig& cfg = spec.engine;
    cfg.container_bytes = container_bytes;
    cfg.restore_cache_bytes = cache_bytes;
    cfg.rewrite = mode;
    cfg.cbr_segment_bytes = flags.get_size(
        "cbr-segment-mb", 2ull << 20, 64ull << 10, 1ull << 40, 1ull << 20);
    // Default cap 3: corpus images are small (segments never span files),
    // so the per-segment budget must be tight for capping to bind.
    cfg.cbr_cap = static_cast<std::uint32_t>(
        flags.get_uint("cbr-cap", 3, 1, 65536));
    cfg.har_utilization = flags.get_double("har-util", 0.5);

    // One engine ingests every generation, so HAR sees each one close.
    MemoryBackend mem;
    BackendStack stack(mem, cfg);
    const ExperimentResult r = run_experiment(spec, corpus, stack);
    summaries.push_back({std::string(rewrite_mode_name(mode)), r.real_der(),
                         r.rewrite_ratio(), r.counters.rewritten_bytes,
                         r.containers_sealed});

    // Restore each generation through the bounded-cache read path.
    for (std::uint32_t g = 0; g < corpus.config().snapshots; ++g) {
      std::vector<std::string> names;
      for (const auto& f : corpus.files()) {
        if (f.snapshot == g) names.push_back(f.name);
      }
      if (names.empty()) continue;
      RestorePoint p;
      p.mode = rewrite_mode_name(mode);
      p.generation = g;
      p.m = measure_restore(stack, names);
      curve.push_back(p);
    }
  }

  TextTable rt({"Rewrite", "Gen", "Restore MB/s", "Containers/MB", "CFL"});
  for (const auto& p : curve) {
    rt.add_row({p.mode, TextTable::num(static_cast<std::uint64_t>(p.generation)),
                TextTable::num(p.m.mb_per_s(), 1),
                TextTable::num(p.m.containers_read_per_mb(), 3),
                TextTable::num(p.m.cfl, 3)});
  }
  std::printf("%s\n", rt.to_string().c_str());

  TextTable st({"Rewrite", "real DER", "Rewritten MB", "Rewrite ratio",
                "Containers sealed"});
  for (const auto& s : summaries) {
    st.add_row({s.mode, TextTable::num(s.real_der, 3),
                TextTable::num(s.rewritten_bytes / 1048576.0, 2),
                pct(s.rewrite_ratio, 2),
                TextTable::num(s.containers_sealed)});
  }
  std::printf("%s\n", st.to_string().c_str());
  std::printf("reading: CFL decays with generation under none as old copies "
              "scatter;\ncbr/har trade dedup ratio (rewritten MB) for a "
              "flatter curve.\n");

  const std::string json_out = flags.get("json-out", "");
  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::trunc);
    out << "{\n  \"bench\": \"restore_locality\",\n"
        << "  \"algo\": \"" << algo << "\",\n"
        << "  \"corpus_mb\": " << o.total_mb << ",\n"
        << "  \"generations\": " << corpus.config().snapshots << ",\n"
        << "  \"container_bytes\": " << container_bytes << ",\n"
        << "  \"restore_cache_bytes\": " << cache_bytes << ",\n  \"modes\": [";
    for (std::size_t i = 0; i < summaries.size(); ++i) {
      const auto& s = summaries[i];
      out << (i ? "," : "") << "\n    {\"rewrite\": \"" << s.mode
          << "\", \"real_der\": " << s.real_der
          << ", \"rewrite_ratio\": " << s.rewrite_ratio
          << ", \"rewritten_bytes\": " << s.rewritten_bytes
          << ", \"containers_sealed\": " << s.containers_sealed << "}";
    }
    out << "\n  ],\n  \"restores\": [";
    for (std::size_t i = 0; i < curve.size(); ++i) {
      const auto& p = curve[i];
      out << (i ? "," : "") << "\n    {\"rewrite\": \"" << p.mode
          << "\", \"generation\": " << p.generation
          << ", \"bytes\": " << p.m.bytes
          << ", \"restore_mb_per_s\": " << p.m.mb_per_s()
          << ", \"container_reads\": " << p.m.container_reads
          << ", \"containers_read_per_mb\": " << p.m.containers_read_per_mb()
          << ", \"cfl\": " << p.m.cfl << "}";
    }
    out << "\n  ]\n}\n";
    std::printf("wrote %s\n", json_out.c_str());
  }
  return 0;
}
