// Differential / property harness for the chunker scan kernels.
//
// Rabin and TTTD: the two-byte scan loop (chunk/rabin_window.h) against a
// per-byte reference loop built on RabinFingerprint::push, over random,
// all-zero and periodic corpora, windows {16, 48, 64}, ECS from 64 (min_size
// below the window, so nothing is skipped) to 65536, and buffers fed whole,
// in prime-sized pieces and in pieces of 1, w-1, w and w+1 bytes. A golden
// digest of default-config cuts, recorded with per-byte scan loops, keeps
// kernel and reference from drifting together.
//
// Gear:
// The SIMD block scan is a correctness-critical rewrite of the hottest
// loop in the system, so it is locked down from three directions:
//  1. cut-point differential: scalar vs. simd over >= 1000 randomized
//     (seed-logged) buffers, plus all-zero / periodic / boundary-
//     adversarial corpora, across several chunker geometries;
//  2. resumption differential: the same buffers re-fed through scan() in
//     pieces split at every offset modulo a prime, so the carried
//     (hash_, pos_) state is exercised at arbitrary block phases;
//  3. engine-level property: every deduplication engine must produce
//     identical dedup results (chunk population, duplicate bytes, manifest
//     entry counts) under --chunker-impl=scalar and =simd.
#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mhd/chunk/gear_chunker.h"
#include "mhd/chunk/rabin_chunker.h"
#include "mhd/chunk/tttd_chunker.h"
#include "mhd/hash/rabin.h"
#include "mhd/hash/sha1.h"
#include "mhd/sim/runner.h"
#include "mhd/util/random.h"
#include "mhd/workload/presets.h"

namespace mhd {
namespace {

ChunkerConfig config_with_impl(std::uint64_t ecs, ChunkerImpl impl) {
  ChunkerConfig cfg = ChunkerConfig::from_expected(ecs);
  cfg.impl = impl;
  return cfg;
}

/// A cut: where the chunk ends, and the cut_back() that put it there.
using Cut = std::pair<std::size_t, std::size_t>;

/// Drives scan() over `data` fed as consecutive pieces whose boundaries
/// are the (sorted) offsets in `splits`, collecting every cut. A piece
/// boundary mid-chunk exercises the resumable scan state exactly like
/// ChunkStream's refill does, and after a cut with cut_back() b the next
/// scan starts b bytes back, as ChunkStream re-feeds them.
std::vector<Cut> cut_points(Chunker& chunker, ByteSpan data,
                            const std::vector<std::size_t>& splits) {
  std::vector<Cut> cuts;
  std::size_t piece_start = 0;
  std::size_t split_index = 0;
  while (piece_start < data.size()) {
    std::size_t piece_end = data.size();
    while (split_index < splits.size() && splits[split_index] <= piece_start) {
      ++split_index;
    }
    if (split_index < splits.size()) {
      piece_end = std::min(piece_end, splits[split_index]);
    }
    // Within one piece, scan() may return several cuts; re-feed the rest.
    std::size_t off = piece_start;
    while (off < piece_end) {
      const auto r = chunker.scan({data.data() + off, piece_end - off});
      off += r.consumed;
      if (r.cut) {
        const std::size_t back = chunker.cut_back();
        off -= back;
        cuts.push_back({off, back});
      }
    }
    piece_start = piece_end;
  }
  return cuts;
}

std::vector<Cut> whole_buffer_cuts(Chunker& chunker, ByteSpan data) {
  return cut_points(chunker, data, {});
}

/// Split offsets that cut `n` bytes into pieces of `piece` bytes.
std::vector<std::size_t> pieces_of(std::size_t piece, std::size_t n) {
  std::vector<std::size_t> splits;
  for (std::size_t off = piece; off < n; off += piece) splits.push_back(off);
  return splits;
}

ByteVec random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  ByteVec out(n);
  for (auto& b : out) b = static_cast<Byte>(rng());
  return out;
}

ByteVec periodic_bytes(std::size_t n, std::size_t period, std::uint64_t seed) {
  const ByteVec pattern = random_bytes(period, seed);
  ByteVec out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = pattern[i % period];
  return out;
}

void expect_identical_cuts(const ChunkerConfig& base, ByteSpan data,
                           const std::vector<std::size_t>& splits) {
  ChunkerConfig scalar_cfg = base;
  scalar_cfg.impl = ChunkerImpl::kScalar;
  ChunkerConfig simd_cfg = base;
  simd_cfg.impl = ChunkerImpl::kSimd;
  GearChunker scalar(scalar_cfg);
  GearChunker simd(simd_cfg);
  const auto ref = cut_points(scalar, data, splits);
  const auto got = cut_points(simd, data, splits);
  ASSERT_EQ(ref, got) << "scalar vs " << simd.impl_name();
}

TEST(ChunkerDifferential, ReportsDistinctImplementations) {
  GearChunker scalar(config_with_impl(1024, ChunkerImpl::kScalar));
  GearChunker simd(config_with_impl(1024, ChunkerImpl::kSimd));
  EXPECT_STREQ(scalar.impl_name(), "scalar");
  EXPECT_NE(std::string(simd.impl_name()).find("simd"), std::string::npos);
}

// Satellite requirement: >= 1k randomized buffers with logged seeds. Runs
// across several geometries, including a tight min==max-adjacent one and a
// min_size below the 64-byte gear window.
TEST(ChunkerDifferential, ThousandRandomBuffersBitIdentical) {
  struct Geometry {
    std::uint32_t min, expected, max;
  };
  const std::vector<Geometry> geometries = {
      {64, 256, 2048},    // small chunks: many cuts per buffer
      {256, 1024, 8192},  // from_expected(1024) shape
      {1000, 1024, 1100}, // all three zones inside a few blocks
      {16, 128, 1024},    // min below the 64-byte gear window
  };
  std::size_t buffers = 0;
  for (const auto& g : geometries) {
    ChunkerConfig cfg;
    cfg.min_size = g.min;
    cfg.expected_size = g.expected;
    cfg.max_size = g.max;
    for (std::uint64_t seed = 1; seed <= 260; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "seed=" << seed << " min=" << g.min << " expected="
                   << g.expected << " max=" << g.max);
      Xoshiro256 rng(seed * 7919);
      const std::size_t n = 1 + rng() % (48 * 1024);
      const ByteVec data = random_bytes(n, seed);
      expect_identical_cuts(cfg, data, {});
      ++buffers;
    }
  }
  EXPECT_GE(buffers, 1000u);
}

// Satellite requirement: buffers split at every offset mod a prime, so
// scan() resumption state is exercised at every block phase. Every split
// schedule must also match the unsplit scalar reference.
TEST(ChunkerDifferential, SplitAtEveryOffsetModPrime) {
  const ByteVec data = random_bytes(24 * 1024, 42);
  const ChunkerConfig cfg = ChunkerConfig::from_expected(1024);

  ChunkerConfig scalar_cfg = cfg;
  scalar_cfg.impl = ChunkerImpl::kScalar;
  GearChunker reference(scalar_cfg);
  const auto ref = whole_buffer_cuts(reference, data);

  for (const std::size_t prime : {3u, 61u, 257u, 1021u, 4099u}) {
    // Boundaries at every multiple of the prime: piece sizes are `prime`
    // bytes, so every offset r mod prime occurs as an intra-piece phase
    // and every multiple as a resumption point.
    const auto splits = pieces_of(prime, data.size());
    SCOPED_TRACE(testing::Message() << "prime=" << prime);
    ChunkerConfig simd_cfg = cfg;
    simd_cfg.impl = ChunkerImpl::kSimd;
    GearChunker simd(simd_cfg);
    EXPECT_EQ(cut_points(simd, data, splits), ref);

    ChunkerConfig rescan_cfg = cfg;
    rescan_cfg.impl = ChunkerImpl::kScalar;
    GearChunker scalar(rescan_cfg);
    EXPECT_EQ(cut_points(scalar, data, splits), ref);
  }
}

// Two-piece split at every single offset of a small buffer: the exhaustive
// version of the resumption property.
TEST(ChunkerDifferential, TwoPieceSplitAtEveryOffset) {
  const ByteVec data = random_bytes(4096, 7);
  const ChunkerConfig cfg = ChunkerConfig::from_expected(256);

  ChunkerConfig scalar_cfg = cfg;
  scalar_cfg.impl = ChunkerImpl::kScalar;
  GearChunker reference(scalar_cfg);
  const auto ref = whole_buffer_cuts(reference, data);

  for (std::size_t split = 0; split <= data.size(); ++split) {
    ChunkerConfig simd_cfg = cfg;
    simd_cfg.impl = ChunkerImpl::kSimd;
    GearChunker simd(simd_cfg);
    const std::vector<std::size_t> splits =
        (split == 0 || split == data.size())
            ? std::vector<std::size_t>{}
            : std::vector<std::size_t>{split};
    ASSERT_EQ(cut_points(simd, data, splits), ref) << "split=" << split;
  }
}

// All-zero input saturates the gear hash into a fixed point; depending on
// the mask this degenerates to max_size-forced cuts — the adversarial case
// for the block scan's max boundary handoff.
TEST(ChunkerDifferential, AllZeroBufferForcedCuts) {
  const ByteVec data(512 * 1024, 0);
  for (const std::uint64_t ecs : {256u, 1024u, 4096u}) {
    SCOPED_TRACE(testing::Message() << "ecs=" << ecs);
    expect_identical_cuts(ChunkerConfig::from_expected(ecs), data, {});
  }
  // Forced cuts must actually occur (the scenario is exercised, not vacuous).
  ChunkerConfig cfg = ChunkerConfig::from_expected(1024);
  cfg.impl = ChunkerImpl::kSimd;
  GearChunker simd(cfg);
  const auto cuts = whole_buffer_cuts(simd, data);
  ASSERT_FALSE(cuts.empty());
  EXPECT_EQ(cuts.front().first, cfg.max_size);
}

// Periodic data hits the same hash window over and over: either a cut
// fires every period (dense-candidate stress) or never (forced-cut
// stress). Periods around the 64-byte window and the 32-byte block size
// are the interesting phases.
TEST(ChunkerDifferential, PeriodicBuffers) {
  for (const std::size_t period : {1u, 3u, 31u, 32u, 33u, 64u, 255u}) {
    for (const std::uint64_t seed : {11u, 12u, 13u}) {
      SCOPED_TRACE(testing::Message() << "period=" << period
                                      << " seed=" << seed);
      const ByteVec data = periodic_bytes(128 * 1024, period, seed);
      expect_identical_cuts(ChunkerConfig::from_expected(512), data, {});
      expect_identical_cuts(ChunkerConfig::from_expected(4096), data, {});
    }
  }
}

// Boundary-adversarial: buffers sized to land scan() calls exactly on the
// min/expected/max transitions and on block-size multiples of them.
TEST(ChunkerDifferential, BoundaryAdversarialLengthsAndSplits) {
  ChunkerConfig cfg;
  cfg.min_size = 128;
  cfg.expected_size = 160;  // expected just past min: all zones collide
  cfg.max_size = 192;
  const ByteVec data = random_bytes(16 * 1024, 99);

  std::vector<std::size_t> interesting;
  for (const std::size_t base : {128u, 160u, 192u}) {
    for (int delta = -33; delta <= 33; ++delta) {
      const std::ptrdiff_t off = static_cast<std::ptrdiff_t>(base) + delta;
      if (off > 0 && static_cast<std::size_t>(off) < data.size()) {
        interesting.push_back(static_cast<std::size_t>(off));
      }
    }
  }
  std::sort(interesting.begin(), interesting.end());
  interesting.erase(std::unique(interesting.begin(), interesting.end()),
                    interesting.end());

  expect_identical_cuts(cfg, data, {});
  expect_identical_cuts(cfg, data, interesting);

  // And with the default geometry, piece sizes straddling the block size.
  const ChunkerConfig def = ChunkerConfig::from_expected(1024);
  for (const std::size_t piece : {31u, 32u, 33u}) {
    SCOPED_TRACE(testing::Message() << "piece=" << piece);
    expect_identical_cuts(def, data, pieces_of(piece, data.size()));
  }
}

// Engine-level property: identical dedup ratios and manifest entry counts
// under both implementations, for every engine. Cut points being identical
// is necessary but not sufficient — this asserts nothing downstream
// branches on the implementation either.
TEST(ChunkerDifferential, EnginesProduceIdenticalResultsUnderBothImpls) {
  CorpusConfig corpus_cfg = test_preset(1234);
  corpus_cfg.machines = 2;
  corpus_cfg.snapshots = 2;
  const Corpus corpus(corpus_cfg);

  std::vector<std::string> engines = engine_names();
  const auto& extensions = extension_engine_names();
  engines.insert(engines.end(), extensions.begin(), extensions.end());

  for (const auto& engine : engines) {
    SCOPED_TRACE(engine);
    auto run = [&](ChunkerImpl impl) {
      RunSpec spec;
      spec.algorithm = engine;
      spec.engine.ecs = 1024;
      spec.engine.sd = 8;
      spec.engine.bloom_bytes = 64 * 1024;
      spec.engine.chunker = ChunkerKind::kGear;
      spec.engine.chunker_impl = impl;
      return run_experiment(spec, corpus);
    };
    const ExperimentResult scalar = run(ChunkerImpl::kScalar);
    const ExperimentResult simd = run(ChunkerImpl::kSimd);

    EXPECT_EQ(scalar.counters.input_chunks, simd.counters.input_chunks);
    EXPECT_EQ(scalar.counters.stored_chunks, simd.counters.stored_chunks);
    EXPECT_EQ(scalar.counters.dup_chunks, simd.counters.dup_chunks);
    EXPECT_EQ(scalar.counters.dup_bytes, simd.counters.dup_bytes);
    EXPECT_EQ(scalar.counters.dup_slices, simd.counters.dup_slices);
    EXPECT_EQ(scalar.stored_data_bytes, simd.stored_data_bytes);
    EXPECT_EQ(scalar.metadata.inodes_manifests, simd.metadata.inodes_manifests);
    EXPECT_EQ(scalar.metadata.manifest_bytes, simd.metadata.manifest_bytes);
    EXPECT_EQ(scalar.metadata.total_bytes(), simd.metadata.total_bytes());
    EXPECT_DOUBLE_EQ(scalar.data_only_der(), simd.data_only_der());
    // The only allowed difference is the reported kernel name.
    EXPECT_EQ(scalar.chunker_impl, "scalar");
    EXPECT_NE(simd.chunker_impl.find("simd"), std::string::npos);
  }
}

// ---- Rabin and TTTD ------------------------------------------------------

/// The per-byte reference for RabinChunker (tttd = false) and TttdChunker
/// (tttd = true): the same cut rules, one RabinFingerprint::push per byte
/// through its ring-buffer window.
class ReferenceRabinChunker final : public Chunker {
 public:
  ReferenceRabinChunker(const ChunkerConfig& cfg, bool tttd)
      : cfg_(cfg), tttd_(tttd), fp_(cfg.window) {
    const double target = std::max(
        2.0, static_cast<double>(cfg.expected_size) - cfg.min_size);
    const int bits =
        std::max(1, static_cast<int>(std::lround(std::log2(target))));
    main_mask_ = bits >= 63 ? ~0ULL : (1ULL << bits) - 1;
    backup_mask_ = main_mask_ >> 1;
    hash_start_ = cfg.min_size > cfg.window ? cfg.min_size - cfg.window : 0;
  }

  void reset() override {
    fp_.reset();
    pos_ = 0;
    backup_pos_ = 0;
  }

  ScanResult scan(ByteSpan data) override {
    constexpr std::uint64_t kMagic = 0x4D5A3B7F9E2C6A1ULL;
    cut_back_ = 0;
    std::size_t i = 0;
    if (pos_ < hash_start_) {
      i = std::min(data.size(), hash_start_ - pos_);
      pos_ += i;
    }
    while (i < data.size()) {
      const std::uint64_t f = fp_.push(data[i]);
      ++i;
      ++pos_;
      if (pos_ >= cfg_.min_size) {
        if ((f & main_mask_) == (kMagic & main_mask_)) {
          reset();
          return {i, true};
        }
        if (tttd_ && (f & backup_mask_) == (kMagic & backup_mask_)) {
          backup_pos_ = pos_;
        }
      }
      if (pos_ >= cfg_.max_size) {
        const std::size_t back =
            tttd_ && backup_pos_ >= cfg_.min_size ? pos_ - backup_pos_ : 0;
        reset();
        cut_back_ = back;
        return {i, true};
      }
    }
    return {i, false};
  }

  std::size_t cut_back() const override { return cut_back_; }

 private:
  ChunkerConfig cfg_;
  bool tttd_;
  RabinFingerprint fp_;
  std::uint64_t main_mask_ = 0;
  std::uint64_t backup_mask_ = 0;
  std::size_t hash_start_ = 0;
  std::size_t pos_ = 0;
  std::size_t backup_pos_ = 0;
  std::size_t cut_back_ = 0;
};

std::unique_ptr<Chunker> make_rabin_family(bool tttd,
                                           const ChunkerConfig& cfg) {
  if (tttd) return std::make_unique<TttdChunker>(cfg);
  return std::make_unique<RabinChunker>(cfg);
}

ChunkerConfig rabin_config(std::uint64_t ecs, std::uint32_t window) {
  ChunkerConfig cfg = ChunkerConfig::from_expected(ecs);
  cfg.window = window;
  return cfg;
}

/// Every window x ECS of the grid against the per-byte reference, with the
/// buffer from `corpus(n)` fed whole, in prime-sized pieces and in pieces
/// of 1, w-1, w and w+1 bytes.
void expect_rabin_family_matches_reference(
    bool tttd, const std::function<ByteVec(std::size_t)>& corpus) {
  for (const std::uint32_t w : {16u, 48u, 64u}) {
    for (const std::uint64_t ecs : {64u, 128u, 512u, 4096u, 65536u}) {
      const ChunkerConfig cfg = rabin_config(ecs, w);
      // Long enough for a forced cut at max_size, and for several cuts.
      const ByteVec data =
          corpus(std::max<std::size_t>(192 << 10, cfg.max_size + 4099));
      ReferenceRabinChunker reference(cfg, tttd);
      const auto ref = whole_buffer_cuts(reference, data);
      ASSERT_FALSE(ref.empty());
      for (const std::size_t piece :
           {data.size(), std::size_t{61}, std::size_t{4099}, std::size_t{1},
            std::size_t{w - 1}, std::size_t{w}, std::size_t{w + 1}}) {
        SCOPED_TRACE(testing::Message() << (tttd ? "tttd" : "rabin")
                                        << " window=" << w << " ecs=" << ecs
                                        << " piece=" << piece);
        auto chunker = make_rabin_family(tttd, cfg);
        ASSERT_EQ(cut_points(*chunker, data, pieces_of(piece, data.size())),
                  ref);
      }
    }
  }
}

ByteVec random_corpus(std::size_t n) { return random_bytes(n, 4242); }
ByteVec zero_corpus(std::size_t n) { return ByteVec(n, 0); }
// A period well past every window: the fingerprints repeat with it.
ByteVec periodic_corpus(std::size_t n) { return periodic_bytes(n, 1031, 17); }

TEST(RabinDifferential, RandomBufferMatchesPerByteReference) {
  expect_rabin_family_matches_reference(false, random_corpus);
}
TEST(RabinDifferential, AllZeroBufferMatchesPerByteReference) {
  expect_rabin_family_matches_reference(false, zero_corpus);
}
TEST(RabinDifferential, PeriodicBufferMatchesPerByteReference) {
  expect_rabin_family_matches_reference(false, periodic_corpus);
}
TEST(TttdDifferential, RandomBufferMatchesPerByteReference) {
  expect_rabin_family_matches_reference(true, random_corpus);
}
TEST(TttdDifferential, AllZeroBufferMatchesPerByteReference) {
  expect_rabin_family_matches_reference(true, zero_corpus);
}
TEST(TttdDifferential, PeriodicBufferMatchesPerByteReference) {
  expect_rabin_family_matches_reference(true, periodic_corpus);
}

// The grid must reach TTTD's backup cut, or cut_back() goes unchecked.
TEST(TttdDifferential, GridExercisesBackupCuts) {
  const ChunkerConfig cfg = rabin_config(512, 48);
  TttdChunker tttd(cfg);
  const auto cuts = whole_buffer_cuts(tttd, random_corpus(1 << 20));
  EXPECT_TRUE(std::any_of(cuts.begin(), cuts.end(),
                          [](const Cut& c) { return c.second > 0; }));
}

/// SHA-1 over the cuts of every file of a seeded corpus, each cut as
/// (file index, offset, cut_back) in little-endian u64s.
std::string corpus_cut_digest(bool tttd, const ChunkerConfig& cfg,
                              bool reference) {
  const Corpus corpus(test_preset(2013));
  ByteVec record;
  for (std::size_t f = 0; f < corpus.files().size(); ++f) {
    auto src = corpus.open(f);
    const ByteVec data = read_all(*src);
    std::unique_ptr<Chunker> chunker =
        reference ? std::make_unique<ReferenceRabinChunker>(cfg, tttd)
                  : make_rabin_family(tttd, cfg);
    for (const auto& [at, back] : whole_buffer_cuts(*chunker, data)) {
      append_le<std::uint64_t>(record, f);
      append_le<std::uint64_t>(record, at);
      append_le<std::uint64_t>(record, back);
    }
  }
  return Sha1::hash(record).hex();
}

// Recorded with the per-byte loops the chunkers had before the two-byte
// roll. Rabin runs at the CLI default (ECS 4096, window 48); TTTD's max is
// lowered to 2 x ECS so that backup cuts, and cut_back(), occur.
TEST(RabinDifferential, GoldenCutDigestAtDefaultConfig) {
  const ChunkerConfig rabin_cfg = ChunkerConfig::from_expected(4096);
  const std::string rabin = "355101074f719b6df327f2c8e262384a1bd36412";
  EXPECT_EQ(corpus_cut_digest(false, rabin_cfg, false), rabin);
  EXPECT_EQ(corpus_cut_digest(false, rabin_cfg, true), rabin);

  ChunkerConfig tttd_cfg = ChunkerConfig::from_expected(4096);
  tttd_cfg.max_size = 8192;
  const std::string tttd = "9e12a37a3a8e5de8bc247a42f1baccd011e9cb8b";
  EXPECT_EQ(corpus_cut_digest(true, tttd_cfg, false), tttd);
  EXPECT_EQ(corpus_cut_digest(true, tttd_cfg, true), tttd);
}

}  // namespace
}  // namespace mhd
