// hysteresis_anatomy — a guided tour of SHM, BME/FME and HHR.
//
// Builds the paper's Fig. 1/5/6 scenario by hand: a first disk image, a
// second image that shares a slice of it, a third that shares a slice of
// the second — and narrates what the MHD engine does at each step: how
// many hashes represent each file (Fig. 1's "only 5 hash values" point),
// which manifests get hysteresis-re-chunked, and why the same slice never
// triggers HHR twice (the EdgeHash).
//
//   ./hysteresis_anatomy [--ecs=1024] [--sd=16]
#include <cstdio>

#include "mhd/core/mhd_engine.h"
#include "mhd/format/manifest.h"
#include "mhd/repo/repository.h"
#include "mhd/store/memory_backend.h"
#include "mhd/util/flags.h"
#include "mhd/util/random.h"
#include "mhd/workload/block_source.h"

namespace {

using namespace mhd;

ByteVec content(std::uint64_t id, std::size_t n) {
  BlockSource src(7);
  ByteVec out(n);
  src.fill(id, 0, out);
  return out;
}

void show_manifest(const MemoryBackend& backend, const std::string& file) {
  const auto raw =
      backend.get(Ns::kManifest, DedupEngine::file_digest(file).hex());
  if (!raw) {
    std::printf("  %-10s: fully duplicate — no DiskChunk, no Manifest\n",
                file.c_str());
    return;
  }
  const auto m = Manifest::deserialize(*raw);
  std::size_t hooks = 0, merged = 0, singles = 0;
  for (const auto& e : m->entries()) {
    if (e.is_hook) {
      ++hooks;
    } else if (e.chunk_count > 1) {
      ++merged;
    } else {
      ++singles;
    }
  }
  std::printf("  %-10s: %zu manifest entries (%zu hooks, %zu merged, %zu "
              "single) for %llu stored bytes\n",
              file.c_str(), m->entries().size(), hooks, merged, singles,
              static_cast<unsigned long long>(
                  backend.content_bytes(Ns::kDiskChunk)));
}

int run(int argc, char** argv) {
  const Flags flags(argc, argv);
  EngineConfig cfg;
  cfg.ecs = 1024;
  cfg.sd = 16;
  cfg = read_ecs_sd_flags(flags, cfg);

  MemoryBackend backend;
  ObjectStore store(backend);
  MhdEngine engine(store, cfg);

  // Fig. 1 content: File-1 = [Slice-1 | Slice-2]; File-2 = [Slice-3 |
  // Slice-4 | Slice-1]; File-3 = [Slice-3 | fresh].
  const ByteVec slice1 = content(1, 120 << 10);
  const ByteVec slice2 = content(2, 100 << 10);
  const ByteVec slice3 = content(3, 80 << 10);
  const ByteVec slice4 = content(4, 90 << 10);
  const ByteVec fresh = content(5, 60 << 10);

  ByteVec file1 = slice1;
  append(file1, slice2);
  ByteVec file2 = slice3;
  append(file2, slice4);
  append(file2, slice1);
  ByteVec file3 = slice3;
  append(file3, fresh);

  auto feed = [&](const char* name, const ByteVec& bytes) {
    const auto before = engine.counters();
    MemorySource src(bytes);
    engine.add_file(name, src);
    const auto& after = engine.counters();
    std::printf("\nafter %s (%zu KB):\n", name, bytes.size() >> 10);
    std::printf("  duplicate found    : %llu bytes in %llu slice(s)\n",
                static_cast<unsigned long long>(after.dup_bytes -
                                                before.dup_bytes),
                static_cast<unsigned long long>(after.dup_slices -
                                                before.dup_slices));
    std::printf("  HHR re-chunkings   : +%llu (chunk reloads +%llu)\n",
                static_cast<unsigned long long>(after.hhr_operations -
                                                before.hhr_operations),
                static_cast<unsigned long long>(after.hhr_chunk_reloads -
                                                before.hhr_chunk_reloads));
  };

  std::printf("=== Hysteresis re-chunking, step by step (ECS=%u, SD=%u) ===\n",
              cfg.ecs, cfg.sd);
  feed("file1", file1);
  show_manifest(backend, "file1");
  std::printf("  (file1 alone: SHM merges SD-1 chunks per hash — a few "
              "hashes cover the whole file)\n");

  feed("file2", file2);
  engine.finish();  // flush dirty manifests so we can inspect them
  show_manifest(backend, "file1");
  show_manifest(backend, "file2");
  std::printf("  (file2's tail matched Slice-1 inside file1: file1's merged "
              "entries were re-chunked\n   at the discovered edge — "
              "hysteresis: the old manifest adapts only when duplication\n"
              "   is actually observed)\n");

  feed("file3", file3);
  engine.finish();
  show_manifest(backend, "file2");
  show_manifest(backend, "file3");

  // Re-feed file3: the EdgeHash pinned the boundary, so no new HHR.
  feed("file3-again", file3);
  std::printf("  (identical slice again: hash-matches the re-chunked "
              "entries directly — zero new HHR)\n");

  engine.finish();
  std::printf("\ntotal manifest bytes for ~%zu KB of input: %llu\n",
              (file1.size() + file2.size() + file3.size()) >> 10,
              static_cast<unsigned long long>(
                  backend.content_bytes(Ns::kManifest)));
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
