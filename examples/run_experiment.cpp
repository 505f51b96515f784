// run_experiment — the researcher's CLI: run any engine over a synthetic
// corpus with full parameter control and get every metric of the paper as
// a table and as JSON (for plotting pipelines).
//
//   ./run_experiment --algo=bf-mhd --size_mb=48 --ecs=1024 --sd=32
//                    [--chunker=rabin|tttd|gear|fixed]
//                    [--chunker-impl=auto|scalar|simd]
//                    [--hash-impl=auto|shani|simd|portable] [--cache_kb=256]
//                    [--index-impl=mem|disk|sampled]
//                    [--sample-bits=6] [--champions=10]
//                    [--framed] [--fault-plan=SPEC]
//                    [--container-mb=N] [--rewrite=none|cbr|har]
//                    [--cbr-segment-mb=4] [--cbr-cap=16] [--har-util=0.5]
//                    [--restore-cache-mb=32] [--measure-restore]
//                    [--verify] [--json]
//
// --algo, --size_mb, --seed, --cache_kb, --cbr-segment-mb, --cbr-cap and
// --har-util (which tune --rewrite=cbr|har), --measure-restore, --verify
// and --json are this CLI's own. Every other flag is dedup_cli's, read by
// the same code (read_engine_flags in src/mhd/repo/) and described in its
// usage header; each run uses a fresh in-memory repository, and one
// engine ingests every generation of the corpus, so --rewrite=har works
// here. --rewrite needs --container-mb: rewriting decides from container
// placement, so a rewrite mode without containers exits 2.
// --index-impl=disk|sampled needs an engine that builds a fingerprint
// index: on subchunk, sparseindexing or extremebinning it exits 2.
// --measure-restore times a full streaming restore of the corpus after
// ingest and reports restore MB/s, containers-read-per-MB and CFL.
// A flag mistake exits 2; a failed experiment exits 1.
#include <cstdio>

#include "mhd/metrics/json_export.h"
#include "mhd/repo/repository.h"
#include "mhd/sim/runner.h"
#include "mhd/util/table.h"
#include "mhd/workload/presets.h"

namespace {

int run(int argc, char** argv) {
  using namespace mhd;
  const Flags flags(argc, argv);

  RunSpec spec;
  spec.algorithm = flags.get("algo", "bf-mhd");
  spec.engine.ecs = 1024;
  spec.engine.sd = 32;
  spec.engine.manifest_cache_bytes =
      flags.get_uint("cache_kb", 256, 0, 1 << 30) << 10;
  spec.engine.manifest_cache_capacity = 4096;
  spec.engine = read_engine_flags(flags, spec.engine);
  spec.engine.cbr_segment_bytes =
      flags.get_size("cbr-segment-mb", spec.engine.cbr_segment_bytes,
                     64ull << 10, 1ull << 40, /*unit=*/1ull << 20);
  spec.engine.cbr_cap = static_cast<std::uint32_t>(
      flags.get_uint("cbr-cap", spec.engine.cbr_cap, 1, 65536));
  spec.engine.har_utilization =
      flags.get_double("har-util", spec.engine.har_utilization);
  require_rewrite_layer(spec.engine);
  require_index_tier(spec.algorithm, spec.engine);
  spec.verify = flags.get_bool("verify", false);
  spec.measure_restore = flags.get_bool("measure-restore", false);

  const auto size_mb = flags.get_uint("size_mb", 48, 1, 1 << 20);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const Corpus corpus(icpp13_preset(size_mb, seed));

  ExperimentResult r;
  try {
    r = run_experiment(spec, corpus);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "experiment failed: %s\n", e.what());
    return 1;
  }

  if (flags.get_bool("json", false)) {
    std::printf("%s\n", to_json(r).c_str());
    return 0;
  }

  std::printf("%s on %.1f MB (ECS=%u, SD=%u, chunker=%s/%s, sha1=%s)%s\n\n",
              r.algorithm.c_str(), r.input_bytes / 1048576.0, r.ecs, r.sd,
              r.chunker.c_str(), r.chunker_impl.c_str(), r.hash_impl.c_str(),
              spec.verify ? " [restores verified byte-exactly]" : "");
  TextTable t({"Metric", "Value"});
  t.add_row({"data-only DER", TextTable::num(r.data_only_der(), 3)});
  t.add_row({"real DER", TextTable::num(r.real_der(), 3)});
  t.add_row({"MetaDataRatio", TextTable::num(r.metadata_ratio() * 100, 4) + "%"});
  t.add_row({"ThroughputRatio", TextTable::num(r.throughput_ratio(), 3)});
  t.add_row({"stored data MB", TextTable::num(r.stored_data_bytes / 1048576.0, 2)});
  t.add_row({"metadata KB", TextTable::num(r.metadata.total_bytes() / 1024)});
  t.add_row({"inodes", TextTable::num(r.metadata.total_inodes())});
  t.add_row({"duplicate slices (L)", TextTable::num(r.counters.dup_slices)});
  t.add_row({"DAD KB", TextTable::num(r.dad_bytes() / 1024.0, 1)});
  t.add_row({"stored chunks (N)", TextTable::num(r.counters.stored_chunks)});
  t.add_row({"duplicate chunks (D)", TextTable::num(r.counters.dup_chunks)});
  t.add_row({"HHR operations", TextTable::num(r.counters.hhr_operations)});
  t.add_row({"HHR chunk reloads", TextTable::num(r.counters.hhr_chunk_reloads)});
  t.add_row({"manifest loads", TextTable::num(r.manifest_loads)});
  t.add_row({"disk accesses", TextTable::num(r.stats.total_accesses())});
  t.add_row({"index RAM KB", TextTable::num(r.index_ram_bytes / 1024)});
  t.add_row({"index impl", r.index_impl});
  t.add_row({"index entries", TextTable::num(r.index_entries)});
  if (r.index_impl == "sampled") {
    t.add_row({"sampled hook entries", TextTable::num(r.sampled_hook_entries)});
    t.add_row({"champion loads", TextTable::num(r.champion_loads)});
    t.add_row({"sampled missed-dup MB",
               TextTable::num(r.sampled_missed_dup_bytes / 1048576.0, 2)});
  }
  if (r.framed) {
    t.add_row({"framing overhead KB",
               TextTable::num(r.framing_overhead_bytes() / 1024.0, 1)});
  }
  if (r.container_bytes != 0) {
    t.add_row({"container MB", TextTable::num(r.container_bytes / 1048576.0, 1)});
    t.add_row({"containers sealed", TextTable::num(r.containers_sealed)});
    t.add_row({"container packed MB",
               TextTable::num(r.container_packed_bytes / 1048576.0, 2)});
    t.add_row({"rewrite mode", r.rewrite_mode});
    if (r.rewrite_mode != "none") {
      t.add_row({"rewritten chunks", TextTable::num(r.counters.rewritten_chunks)});
      t.add_row({"rewritten MB",
                 TextTable::num(r.counters.rewritten_bytes / 1048576.0, 2)});
      t.add_row({"rewrite ratio",
                 TextTable::num(r.rewrite_ratio() * 100, 2) + "%"});
    }
  }
  if (r.restore.bytes != 0) {
    t.add_row({"restore MB/s", TextTable::num(r.restore.mb_per_s(), 1)});
    t.add_row({"containers read / MB",
               TextTable::num(r.restore.containers_read_per_mb(), 3)});
    t.add_row({"CFL", TextTable::num(r.restore.cfl, 3)});
  }
  if (r.stats.transient_retries != 0) {
    t.add_row({"transient retries", TextTable::num(r.stats.transient_retries)});
  }
  if (r.counters.corruption_fallbacks != 0) {
    t.add_row({"corruption fallbacks",
               TextTable::num(r.counters.corruption_fallbacks)});
  }
  std::printf("%s", t.to_string().c_str());
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
