// Shared scaffolding for the paper-reproduction bench harnesses.
//
// Every bench binary accepts:
//   --size_mb=N     total corpus size (default 96)
//   --sd=N          sample distance in hashes (default 32 — see below)
//   --ecs=a,b,c     ECS sweep (default 512,1024,2048,4096,8192)
//   --seed=N        corpus seed
//   --cache_kb=N    equal manifest-cache RAM budget per algorithm (256)
//   --chunker=K     rabin (default) | tttd | gear
//   --chunker-impl=I  auto (default) | scalar | simd scan kernel
//   --verify        byte-exact reconstruction check after every run (slow)
//
// Scaling note (EXPERIMENTS.md discusses this in detail): the paper used a
// 1.0 TB corpus with SD=1000, i.e. hundreds of hooks per 5 GB disk image.
// At bench scale (default ~96 MB so the full suite runs in minutes) SD is
// scaled down to keep the number of hooks per image — and the ratio of
// duplicate-slice length to hook spacing — in the paper's regime. Pass
// --size_mb=1000 --sd=1000 to approach the paper's parameters directly.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "mhd/metrics/analysis.h"
#include "mhd/sim/runner.h"
#include "mhd/util/flags.h"
#include "mhd/util/table.h"
#include "mhd/workload/presets.h"

namespace mhd::bench {

struct BenchOptions {
  std::uint64_t total_mb = 96;
  std::uint32_t sd = 32;
  std::vector<std::int64_t> ecs_list = {512, 1024, 2048, 4096, 8192};
  std::uint64_t seed = 1;
  bool verify = false;
  /// Equal manifest-cache RAM budget for every algorithm (--cache_kb).
  std::uint64_t cache_kb = 256;
  /// Cut-point algorithm for every engine (--chunker=rabin|tttd|gear).
  ChunkerKind chunker = ChunkerKind::kRabin;
  /// Scan kernel (--chunker-impl=auto|scalar|simd); cut points identical.
  ChunkerImpl chunker_impl = ChunkerImpl::kAuto;

  static BenchOptions parse(int argc, char** argv) {
    const Flags flags(argc, argv);
    BenchOptions o;
    o.total_mb = static_cast<std::uint64_t>(flags.get_int("size_mb", 96));
    o.sd = static_cast<std::uint32_t>(flags.get_int("sd", 32));
    o.ecs_list = flags.get_int_list("ecs", o.ecs_list);
    o.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    o.verify = flags.get_bool("verify", false);
    o.cache_kb = static_cast<std::uint64_t>(flags.get_int("cache_kb", 256));
    o.chunker = chunker_kind_from_string(flags.get("chunker", "rabin"));
    o.chunker_impl = chunker_impl_from_string(
        flags.get_choice("chunker-impl", {"auto", "scalar", "simd"}, "auto"));
    return o;
  }

  Corpus make_corpus() const { return Corpus(icpp13_preset(total_mb, seed)); }

  EngineConfig engine_config(std::uint32_t ecs) const {
    EngineConfig cfg;
    cfg.ecs = ecs;
    cfg.sd = sd;
    cfg.bloom_bytes = 4 << 20;
    // Equal RAM budget for cached manifests across algorithms; the entry
    // count cap is lifted so the byte budget is the binding constraint.
    cfg.manifest_cache_bytes = cache_kb << 10;
    cfg.manifest_cache_capacity = 4096;
    cfg.chunker = chunker;
    cfg.chunker_impl = chunker_impl;
    return cfg;
  }

  RunSpec spec(const std::string& algorithm, std::uint32_t ecs) const {
    RunSpec s;
    s.algorithm = algorithm;
    s.engine = engine_config(ecs);
    s.verify = verify;
    return s;
  }
};

inline void print_header(const char* experiment, const char* paper_claim,
                         const BenchOptions& o) {
  std::printf("=== %s ===\n", experiment);
  std::printf("paper: %s\n", paper_claim);
  std::printf("config: corpus=%lluMB (14 machines x 14 snapshots), SD=%u, seed=%llu\n\n",
              static_cast<unsigned long long>(o.total_mb), o.sd,
              static_cast<unsigned long long>(o.seed));
}

inline std::string pct(double fraction, int precision = 3) {
  return TextTable::num(fraction * 100.0, precision) + "%";
}

/// Derives the paper's analysis inputs (F, N, D, L) from a CDC run — the
/// algorithm-independent chunk-population quantities of Section IV.
inline AnalysisInputs analysis_inputs_from(const ExperimentResult& cdc,
                                           std::uint32_t sd) {
  AnalysisInputs in;
  in.F = cdc.counters.files_with_data;
  in.N = cdc.counters.stored_chunks;
  in.D = cdc.counters.dup_chunks;
  in.L = cdc.counters.dup_slices;
  in.SD = sd;
  return in;
}

}  // namespace mhd::bench
