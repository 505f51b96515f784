// Rabin and TTTD chunkers built and scanned on 8 threads at once cut where
// a serial run cuts. This is the binary's only test, so the shared
// RabinTables cache starts cold and the threads race on its first use of
// every window. Labelled `server` (tests/CMakeLists.txt) so that
// `ctest --preset tsan-server` runs it beside the daemon suites, whose
// sessions chunk concurrently.
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "mhd/chunk/make_chunker.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

struct ChunkerRun {
  ChunkerKind kind;
  std::uint32_t window;
};

/// (offset, cut_back) of every cut of `data` fed whole.
std::vector<std::pair<std::size_t, std::size_t>> cuts_of(const ChunkerRun& run,
                                                         ByteSpan data) {
  ChunkerConfig cfg = ChunkerConfig::from_expected(1024);
  cfg.window = run.window;
  auto chunker = make_chunker(run.kind, cfg);
  std::vector<std::pair<std::size_t, std::size_t>> cuts;
  std::size_t off = 0;
  while (off < data.size()) {
    const auto r = chunker->scan({data.data() + off, data.size() - off});
    off += r.consumed;
    if (r.cut) {
      off -= chunker->cut_back();
      cuts.push_back({off, chunker->cut_back()});
    }
  }
  return cuts;
}

TEST(RabinConcurrency, ColdTablesBuiltByEightThreadsCutLikeSerial) {
  std::vector<ChunkerRun> runs;
  for (const std::uint32_t window : {16u, 48u, 64u}) {
    runs.push_back({ChunkerKind::kRabin, window});
    runs.push_back({ChunkerKind::kTttd, window});
  }
  ByteVec data(256 << 10);
  Xoshiro256 rng(8);
  for (auto& b : data) b = static_cast<Byte>(rng());

  constexpr std::size_t kThreads = 8;
  using Cuts = std::vector<std::pair<std::size_t, std::size_t>>;
  std::vector<std::vector<Cuts>> got(kThreads, std::vector<Cuts>(runs.size()));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Rotated, so that every window has racing first users.
      for (std::size_t k = 0; k < runs.size(); ++k) {
        const std::size_t r = (t + k) % runs.size();
        got[t][r] = cuts_of(runs[r], data);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  for (std::size_t r = 0; r < runs.size(); ++r) {
    const Cuts serial = cuts_of(runs[r], data);
    ASSERT_GT(serial.size(), 10u);
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(got[t][r], serial)
          << chunker_kind_name(runs[r].kind) << " window=" << runs[r].window
          << " thread=" << t;
    }
  }
}

}  // namespace
}  // namespace mhd
