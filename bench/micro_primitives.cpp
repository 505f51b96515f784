// Micro-benchmarks (google-benchmark) for the substrate primitives:
// SHA-1 hashing, CRC32C, Rabin fingerprint rolling, the chunkers, the
// bloom filter, the synthetic content generator, FileBackend's per-object
// put and get, and a framed DiskChunk append one chunk or one flush group
// at a time. These set the CPU-cost context for the ThroughputRatio
// results.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>

#include "mhd/chunk/chunk_stream.h"
#include "mhd/chunk/fixed_chunker.h"
#include "mhd/chunk/rabin_chunker.h"
#include "mhd/chunk/tttd_chunker.h"
#include "mhd/container/bloom_filter.h"
#include "mhd/hash/sha1.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/util/crc32c.h"
#include "mhd/util/random.h"
#include "mhd/workload/block_source.h"

namespace mhd {
namespace {

ByteVec make_data(std::size_t n) {
  BlockSource src(42);
  ByteVec data(n);
  src.fill(7, 0, data);
  return data;
}

void BM_Sha1(benchmark::State& state) {
  const ByteVec data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha1::hash(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(512)->Arg(4096)->Arg(65536)->Arg(1 << 20);

/// Per-kernel SHA-1 MB/s (the BENCH_sha1.json section). One benchmark per
/// compiled-in kernel the host supports, pinned via sha1_digest_with so
/// the numbers are dispatch-independent; registered dynamically in main()
/// because the kernel list is a runtime CPUID question.
void BM_Sha1Kernel(benchmark::State& state, Sha1CompressFn fn) {
  const ByteVec data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sha1_digest_with(fn, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void register_sha1_throughput() {
  for (const Sha1KernelInfo& k : sha1_kernels()) {
    if (!k.supported) continue;
    const std::string name = std::string("sha1_throughput/") + k.name;
    auto* bench = benchmark::RegisterBenchmark(
        name.c_str(),
        [fn = k.fn](benchmark::State& s) { BM_Sha1Kernel(s, fn); });
    bench->Arg(1024)->Arg(4096)->Arg(65536)->Arg(1 << 20);
  }
}

/// Per-kernel CRC32C MB/s, registered like sha1_throughput: 64 B runs
/// below the sse42 kernel's three-lane threshold, 4 KiB is one DiskChunk
/// record at the default ECS, 1 MiB a whole-object read.
void BM_Crc32cKernel(benchmark::State& state, Crc32cFn fn) {
  const ByteVec data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fn(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}

void register_crc32c_throughput() {
  for (const Crc32cKernelInfo& k : crc32c_kernels()) {
    if (!k.supported) continue;
    const std::string name = std::string("crc32c_throughput/") + k.name;
    auto* bench = benchmark::RegisterBenchmark(
        name.c_str(),
        [fn = k.fn](benchmark::State& s) { BM_Crc32cKernel(s, fn); });
    bench->Arg(64)->Arg(4096)->Arg(1 << 20);
  }
}

void BM_RabinRoll(benchmark::State& state) {
  const ByteVec data = make_data(1 << 16);
  RabinFingerprint fp(48);
  for (auto _ : state) {
    for (Byte b : data) benchmark::DoNotOptimize(fp.push(b));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RabinRoll);

template <typename ChunkerT>
void chunker_bench(benchmark::State& state, std::uint32_t ecs) {
  const ByteVec data = make_data(4 << 20);
  for (auto _ : state) {
    ChunkerT chunker{ChunkerConfig::from_expected(ecs)};
    MemorySource src(data);
    ChunkStream stream(src, chunker);
    ByteVec chunk;
    std::size_t chunks = 0;
    while (stream.next(chunk)) ++chunks;
    benchmark::DoNotOptimize(chunks);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}

void BM_RabinChunker(benchmark::State& state) {
  chunker_bench<RabinChunker>(state, static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_RabinChunker)->Arg(512)->Arg(4096)->Arg(8192);

void BM_TttdChunker(benchmark::State& state) {
  chunker_bench<TttdChunker>(state, static_cast<std::uint32_t>(state.range(0)));
}
BENCHMARK(BM_TttdChunker)->Arg(4096);

void BM_BloomFilter(benchmark::State& state) {
  BloomFilter bf(4 << 20);
  Xoshiro256 rng(1);
  for (int i = 0; i < 100000; ++i) bf.insert(rng());
  Xoshiro256 probe(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(bf.maybe_contains(probe()));
  }
}
BENCHMARK(BM_BloomFilter);

void BM_BlockSourceFill(benchmark::State& state) {
  BlockSource src(1);
  ByteVec buf(1 << 20);
  std::uint64_t id = 0;
  for (auto _ : state) {
    src.fill(id++, 0, buf);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_BlockSourceFill);

/// file_put/<bytes> and file_get/<bytes>: `median_us` is the median time
/// of one FileBackend call over 1,000 hooks of that size, SHA-1-named as
/// the engines name them, in a fresh repository under the temp directory.
/// file_put puts them into the empty namespace; file_get reads each back
/// through a second instance opened after the puts, as a restore or a
/// reopened repository reads what an earlier process stored.
void BM_FileBackend(benchmark::State& state, bool get) {
  namespace fs = std::filesystem;
  constexpr int kObjects = 1000;
  const ByteVec payload = make_data(static_cast<std::size_t>(state.range(0)));
  std::vector<std::string> names;
  for (int i = 0; i < kObjects; ++i) {
    names.push_back(Sha1::hash(as_bytes(std::to_string(i))).hex());
  }
  std::vector<double> us;
  int run = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const fs::path dir =
        fs::temp_directory_path() / ("mhd_micro_file_" +
                                     std::to_string(::getpid()) + "_" +
                                     std::to_string(run++));
    fs::remove_all(dir);
    std::optional<FileBackend> writer(std::in_place, dir);
    if (get) {
      for (const auto& n : names) writer->put(Ns::kHook, n, payload);
      writer.reset();
    }
    const FileBackend reader(dir);
    state.ResumeTiming();
    for (const auto& n : names) {
      const auto t0 = std::chrono::steady_clock::now();
      if (get) {
        benchmark::DoNotOptimize(reader.get(Ns::kHook, n));
      } else {
        writer->put(Ns::kHook, n, payload);
      }
      us.push_back(std::chrono::duration<double, std::micro>(
                       std::chrono::steady_clock::now() - t0)
                       .count());
    }
    state.PauseTiming();
    writer.reset();
    fs::remove_all(dir);
    state.ResumeTiming();
  }
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  state.counters["median_us"] = us[us.size() / 2];
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kObjects);
}

void register_file_backend() {
  for (const bool get : {false, true}) {
    benchmark::RegisterBenchmark(get ? "file_get" : "file_put",
                                 [get](benchmark::State& s) {
                                   BM_FileBackend(s, get);
                                 })
        ->Arg(44)
        ->Arg(2048)
        ->Iterations(5)
        ->Unit(benchmark::kMillisecond);
  }
}

/// chunk_append/<n>: `median_us` is the median time per 4 KiB chunk of a
/// DiskChunk append through FramedBackend -> FileBackend, the chunks handed
/// down n at a time (append_all): 1 is a store call per chunk, 64 an SD-64
/// MHD flush group. A run appends 1,024 chunks to 4 DiskChunks in a fresh
/// repository under the temp directory.
void BM_ChunkAppend(benchmark::State& state) {
  namespace fs = std::filesystem;
  constexpr std::size_t kChunk = 4096;
  constexpr std::size_t kChunks = 1024;
  constexpr std::size_t kObjects = 4;
  const auto batch = static_cast<std::size_t>(state.range(0));
  const ByteVec data = make_data(kChunks * kChunk);
  std::vector<ByteSpan> chunks;
  for (std::size_t i = 0; i < kChunks; ++i) {
    chunks.push_back(ByteSpan(data).subspan(i * kChunk, kChunk));
  }
  std::vector<double> us;
  int run = 0;
  for (auto _ : state) {
    state.PauseTiming();
    const fs::path dir =
        fs::temp_directory_path() / ("mhd_micro_append_" +
                                     std::to_string(::getpid()) + "_" +
                                     std::to_string(run++));
    fs::remove_all(dir);
    {
      FileBackend file(dir);
      FramedBackend framed(file);
      state.ResumeTiming();
      for (std::size_t i = 0; i < kChunks; i += batch) {
        const std::string name = "c" + std::to_string(i * kObjects / kChunks);
        const auto t0 = std::chrono::steady_clock::now();
        framed.append_all(Ns::kDiskChunk, name,
                          std::span(chunks).subspan(i, batch));
        us.push_back(std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - t0)
                         .count() /
                     static_cast<double>(batch));
      }
      state.PauseTiming();
    }
    fs::remove_all(dir);
    state.ResumeTiming();
  }
  std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
  state.counters["median_us"] = us[us.size() / 2];
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kChunks));
}

void register_chunk_append() {
  benchmark::RegisterBenchmark("chunk_append", BM_ChunkAppend)
      ->Arg(1)
      ->Arg(64)
      ->Iterations(5)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace
}  // namespace mhd

int main(int argc, char** argv) {
  mhd::register_sha1_throughput();
  mhd::register_crc32c_throughput();
  mhd::register_file_backend();
  mhd::register_chunk_append();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
