// Ablation study of MHD's three design choices (DESIGN.md section 6):
//
//   shm-off    : hook sampling without hash merging — every stored chunk
//                keeps its own 37-byte manifest entry. Shows how much of
//                the metadata harnessing comes from SHM itself.
//   edge-off   : HHR splits produce no EdgeHash — identical future slices
//                re-trigger byte reloads (more chunk-input accesses).
//   fwd-only   : forward-only match extension — duplicate data *behind*
//                an anchor (between two hooks) is permanently missed.
//   bloom-off  : TABLE II's "without bloom filter" row — every unique
//                chunk pays a failed on-disk query.
#include "bench_common.h"

using namespace mhd;
using namespace mhd::bench;

int main(int argc, char** argv) {
  BenchOptions o = BenchOptions::parse(argc, argv);
  const Flags flags(argc, argv);
  const std::uint32_t ecs =
      static_cast<std::uint32_t>(flags.get_int("table_ecs", 1024));
  print_header("Ablation: MHD design choices",
               "each row disables one mechanism of BF-MHD", o);
  const Corpus corpus = o.make_corpus();

  // "bf-mhd" sets the bloom and "mhd" clears it.
  struct Variant {
    const char* label;
    const char* algo;
    void (*tweak)(EngineConfig&);
  };
  const Variant variants[] = {
      {"BF-MHD (full)", "bf-mhd", [](EngineConfig&) {}},
      {"shm-off", "bf-mhd", [](EngineConfig& c) { c.enable_shm = false; }},
      {"edge-off", "bf-mhd",
       [](EngineConfig& c) { c.enable_edge_hash = false; }},
      {"fwd-only", "bf-mhd",
       [](EngineConfig& c) { c.enable_backward_extension = false; }},
      {"bloom-off", "mhd", [](EngineConfig&) {}},
  };

  TextTable t({"Variant", "MetaDataRatio", "Real DER", "Data-only DER",
               "HHR reloads", "Queries", "Total accesses"});
  for (const auto& v : variants) {
    RunSpec spec = o.spec(v.algo, ecs);
    v.tweak(spec.engine);
    const auto r = run_experiment(spec, corpus);
    t.add_row({v.label, pct(r.metadata_ratio()),
               TextTable::num(r.real_der(), 3),
               TextTable::num(r.data_only_der(), 3),
               TextTable::num(r.counters.hhr_chunk_reloads),
               TextTable::num(r.stats.count(AccessKind::kSmallChunkQuery) +
                              r.stats.count(AccessKind::kBigChunkQuery)),
               TextTable::num(r.stats.total_accesses())});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf(
      "expected shape: shm-off trades metadata for detection — every chunk\n"
      "stays individually addressable, so DER rises while manifest bytes\n"
      "grow ~SD/2-fold (the growth looks modest at bench scale where N is\n"
      "small; at the paper's SD=1000 and billions of chunks the 37N-byte\n"
      "manifests dominate RAM and I/O, which is the point of SHM).\n"
      "edge-off raises HHR chunk reloads (repeat re-chunking of identical\n"
      "slices); fwd-only loses the duplicate data behind each anchor;\n"
      "bloom-off multiplies duplication queries (TABLE II's no-bloom row).\n");
  return 0;
}
