// ingest_throughput — end-to-end serial ingest MB/s, bare and framed:
//
//   ./ingest_throughput [--size_mb=96] [--ecs=4096] [--reps=3]
//                       [--engine=cdc] [--chunker=gear]
//                       [--chunker-impl=auto] [--hash-impl=auto] [--seed=1]
//                       [--json=BENCH_ingest.json]
//
// The serial run drives the full corpus through a fresh engine + in-memory
// store and reports best-of-reps throughput.
//
// A final serial run repeats the ingest through the CRC32C FramedBackend:
// its dedup counters must match the bare serial reference bit for bit
// (framing is invisible to the engine) or the bench aborts with a non-zero
// exit, and the physical − logical byte delta is reported as the framing
// overhead — in the output and in the JSON baseline.
//
// BENCH_ingest.json at the repo root is the recorded baseline from this
// harness (see --json).
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "mhd/repo/repository.h"
#include "mhd/sim/runner.h"
#include "mhd/store/memory_backend.h"
#include "mhd/util/flags.h"
#include "mhd/util/timer.h"
#include "mhd/workload/presets.h"

namespace {

using namespace mhd;

struct Row {
  double mb_per_s = 0;
  EngineCounters counters;
  std::uint64_t stored_bytes = 0;    // logical chunk payload bytes
  std::uint64_t physical_bytes = 0;  // framed runs: bytes on the raw store
};

struct RunConfig {
  std::string engine_name;
  EngineConfig engine;
  int reps = 3;
};

/// The corpus pre-materialized in RAM: ingest throughput is measured in
/// the page-cache regime (bytes already resident), so the number reflects
/// the dedup engine itself, not the synthetic generator's speed.
struct ResidentCorpus {
  std::vector<std::string> names;
  std::vector<ByteVec> data;
  std::uint64_t total_bytes = 0;

  explicit ResidentCorpus(const Corpus& corpus) {
    for (std::size_t i = 0; i < corpus.files().size(); ++i) {
      auto src = corpus.open(i);
      ByteVec file(corpus.files()[i].bytes);
      std::size_t off = 0;
      while (off < file.size()) {
        const std::size_t n =
            src->read({file.data() + off, file.size() - off});
        if (n == 0) break;
        off += n;
      }
      file.resize(off);
      total_bytes += off;
      names.push_back(corpus.files()[i].name);
      data.push_back(std::move(file));
    }
  }
};

Row measure(const RunConfig& rc, const ResidentCorpus& corpus,
            bool framed = false) {
  Row row;
  double best = 0;
  EngineConfig layout;
  layout.framed = framed;
  for (int rep = 0; rep < rc.reps; ++rep) {
    MemoryBackend backend;
    BackendStack stack(backend, layout);
    ObjectStore store(stack.top());
    auto engine = make_engine(rc.engine_name, store, rc.engine);
    Stopwatch watch;
    for (std::size_t i = 0; i < corpus.data.size(); ++i) {
      MemorySource src(corpus.data[i]);
      engine->add_file(corpus.names[i], src);
    }
    const double secs = watch.seconds();
    best = std::max(best, corpus.total_bytes / 1048576.0 / secs);
    row.counters = engine->counters();
    row.stored_bytes = stack.top().content_bytes(Ns::kDiskChunk);
    row.physical_bytes = stack.bottom().content_bytes(Ns::kDiskChunk);
  }
  row.mb_per_s = best;
  return row;
}

/// Any mismatch vs. the serial reference is a correctness bug, not noise.
bool diverges(const Row& serial, const Row& row, std::string& why) {
  const auto& a = serial.counters;
  const auto& b = row.counters;
  auto check = [&](const char* name, std::uint64_t x, std::uint64_t y) {
    if (x == y) return false;
    why = std::string(name) + ": serial=" + std::to_string(x) + " -> " +
          std::to_string(y);
    return true;
  };
  return check("input_chunks", a.input_chunks, b.input_chunks) ||
         check("dup_chunks", a.dup_chunks, b.dup_chunks) ||
         check("dup_bytes", a.dup_bytes, b.dup_bytes) ||
         check("stored_chunks", a.stored_chunks, b.stored_chunks) ||
         check("stored_bytes", serial.stored_bytes, row.stored_bytes);
}

void write_json(const std::string& path, const RunConfig& rc,
                const ResidentCorpus& corpus, double serial_mb_s,
                const Row& framed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"ingest_throughput\",\n"
               "  \"engine\": \"%s\",\n  \"chunker\": \"%s\",\n"
               "  \"ecs\": %u,\n  \"hash_impl\": \"%s\",\n"
               "  \"corpus_mb\": %.1f,\n  \"host_cpus\": %u,\n"
               "  \"serial\": {\"mb_per_s\": %.1f},\n",
               rc.engine_name.c_str(), chunker_kind_name(rc.engine.chunker),
               rc.engine.ecs, resolved_sha1_impl_name(rc.engine.hash_impl),
               corpus.total_bytes / 1048576.0,
               std::thread::hardware_concurrency(), serial_mb_s);
  const std::uint64_t overhead = framed.physical_bytes - framed.stored_bytes;
  std::fprintf(f,
               "  \"framed\": {\n"
               "    \"mb_per_s\": %.1f,\n    \"vs_serial\": %.2f,\n"
               "    \"stored_data_bytes\": %llu,\n"
               "    \"physical_data_bytes\": %llu,\n"
               "    \"framing_overhead_bytes\": %llu,\n"
               "    \"framing_overhead_pct\": %.3f\n  }\n}\n",
               framed.mb_per_s, framed.mb_per_s / serial_mb_s,
               static_cast<unsigned long long>(framed.stored_bytes),
               static_cast<unsigned long long>(framed.physical_bytes),
               static_cast<unsigned long long>(overhead),
               framed.stored_bytes == 0
                   ? 0.0
                   : 100.0 * overhead / framed.stored_bytes);
  std::fclose(f);
  std::printf("\nbaseline written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  RunConfig rc;
  rc.engine_name = flags.get("engine", "cdc");
  rc.reps = static_cast<int>(flags.get_uint("reps", 3, 1, 100));
  rc.engine.ecs =
      static_cast<std::uint32_t>(flags.get_uint("ecs", 4096, 64, 1 << 20));
  rc.engine.sd = 32;
  // Gear (SIMD scan) by default so chunking is cheap and the rest of the
  // ingest path shows; --chunker=rabin gives the paper's default config.
  rc.engine.chunker = chunker_kind_from_string(flags.get("chunker", "gear"));
  rc.engine.chunker_impl = chunker_impl_from_string(
      flags.get_choice("chunker-impl", {"auto", "scalar", "simd"}, "auto"));
  rc.engine.hash_impl = sha1_impl_from_string(flags.get_choice(
      "hash-impl", {"auto", "shani", "simd", "portable"}, "auto"));

  const auto size_mb = flags.get_uint("size_mb", 96, 1, 1 << 20);
  const auto seed = flags.get_uint("seed", 1);
  const ResidentCorpus corpus{Corpus(icpp13_preset(size_mb, seed))};

  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf("=== serial ingest throughput ===\n");
  std::printf(
      "engine=%s ecs=%u chunker=%s sha1=%s corpus=%lluMB (%zu files, in "
      "RAM), best of %d, host cpus=%u\n\n",
      rc.engine_name.c_str(), rc.engine.ecs,
      chunker_kind_name(rc.engine.chunker),
      resolved_sha1_impl_name(rc.engine.hash_impl),
      static_cast<unsigned long long>(size_mb), corpus.data.size(), rc.reps,
      cpus);

  const Row serial = measure(rc, corpus);
  const double serial_mb_s = serial.mb_per_s;
  std::printf("serial: %.1f MB/s\n", serial_mb_s);

  // Framed reference run: the CRC32C framing must be invisible to the
  // dedup engine (identical counters and logical bytes) and costs only
  // the header/trailer bytes it adds on the raw store.
  const Row framed = measure(rc, corpus, /*framed=*/true);
  {
    std::string why;
    if (diverges(serial, framed, why)) {
      std::fprintf(stderr,
                   "FATAL: framed result diverges from bare serial — %s\n",
                   why.c_str());
      return 1;
    }
  }
  const std::uint64_t overhead = framed.physical_bytes - framed.stored_bytes;
  std::printf(
      "\nCRC32C framing (serial): %.1f MB/s (%.2fx of bare), overhead "
      "%llu bytes = %.3f%% of %.1f MB stored\n",
      framed.mb_per_s, framed.mb_per_s / serial_mb_s,
      static_cast<unsigned long long>(overhead),
      framed.stored_bytes == 0 ? 0.0
                               : 100.0 * overhead / framed.stored_bytes,
      framed.stored_bytes / 1048576.0);

  const std::string json = flags.get("json", "");
  if (!json.empty()) {
    write_json(json, rc, corpus, serial_mb_s, framed);
  }
  return 0;
}
