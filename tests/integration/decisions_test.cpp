// Decision digests: every engine's dedup decisions and backend call order,
// pinned per cell against a checked-in table, so a change that moves one
// decision fails ctest instead of waiting for a hand-run identity grid.
//
// A cell is one run_experiment over test_preset's corpus:
//   * the eight engine names x {rabin, tttd, gear} x {mem, disk, sampled}
//     x {bare, framed};
//   * every engine under --rewrite=cbr and --rewrite=har on framed 64 KiB
//     containers, rewrites occurring, with a verifying streaming restore.
// Each cell reduces to two SHA-1s:
//   * decisions: the engine counters and manifest_loads, the Table II
//     accesses per kind, the index and container stats, and every object
//     the bottom backend holds (namespace, name, bytes);
//   * ops: the put/append/remove/seal calls that reach the bottom backend,
//     in order, each as (op, namespace, name, length).
// Timing fields and the host-dependent chunker_impl/hash_impl names are
// left out, so the digests do not depend on the CPU's scan or SHA-1
// kernels, nor on the build type. (ExtremeBinning's bins and FBC's sketch
// serialize hash maps in iteration order, so another C++ standard library
// may need a fresh table.)
//
// A change that means to move decisions regenerates the table and says why
// in CHANGES.md. This prints a fresh table, "cell <name> <decisions>
// <ops>" per line, to strip of its "cell " prefix:
//   ./build/tests/test_decisions --gtest_also_run_disabled_tests
//       --gtest_filter='*PrintTable*' | grep '^cell ' | cut -d' ' -f2-
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>

#include "mhd/repo/repository.h"
#include "mhd/sim/runner.h"
#include "mhd/workload/presets.h"

namespace mhd {
namespace {

/// Forwards to a MemoryBackend and feeds every mutating call into a
/// running SHA-1, in call order.
class RecordingBackend final : public StorageBackend {
 public:
  void put(Ns ns, const std::string& name, ByteSpan data) override {
    note('p', ns, name, data.size());
    mem_.put(ns, name, data);
  }
  void append(Ns ns, const std::string& name, ByteSpan data) override {
    note('a', ns, name, data.size());
    mem_.append(ns, name, data);
  }
  std::optional<ByteVec> get(Ns ns, const std::string& name) const override {
    return mem_.get(ns, name);
  }
  std::optional<ByteVec> get_range(Ns ns, const std::string& name,
                                   std::uint64_t offset,
                                   std::uint64_t length) const override {
    return mem_.get_range(ns, name, offset, length);
  }
  bool exists(Ns ns, const std::string& name) const override {
    return mem_.exists(ns, name);
  }
  bool remove(Ns ns, const std::string& name) override {
    note('r', ns, name, 0);
    return mem_.remove(ns, name);
  }
  void seal(Ns ns, const std::string& name) override {
    note('s', ns, name, 0);
    mem_.seal(ns, name);
  }
  std::uint64_t object_count(Ns ns) const override {
    return mem_.object_count(ns);
  }
  std::uint64_t content_bytes(Ns ns) const override {
    return mem_.content_bytes(ns);
  }
  std::vector<std::string> list(Ns ns) const override { return mem_.list(ns); }

  Digest ops_digest() { return ops_.digest(); }

 private:
  void note(char op, Ns ns, const std::string& name, std::uint64_t length) {
    ByteVec rec;
    rec.push_back(static_cast<Byte>(op));
    rec.push_back(static_cast<Byte>(ns));
    append_le<std::uint64_t>(rec, length);
    append_le<std::uint32_t>(rec, static_cast<std::uint32_t>(name.size()));
    mhd::append(rec, as_bytes(name));
    ops_.update(rec);
  }

  MemoryBackend mem_;
  Sha1 ops_;
};

const char* index_name(IndexImpl impl) {
  switch (impl) {
    case IndexImpl::kDisk: return "disk";
    case IndexImpl::kSampled: return "sampled";
    default: return "mem";
  }
}

struct Cell {
  std::string engine;
  ChunkerKind chunker = ChunkerKind::kRabin;
  IndexImpl index = IndexImpl::kMem;
  bool framed = false;
  RewriteMode rewrite = RewriteMode::kNone;

  std::string name() const {
    std::string n = engine + "_" + chunker_kind_name(chunker) + "_" +
                    index_name(index) + "_" +
                    (framed ? "framed" : "bare");
    if (rewrite != RewriteMode::kNone) {
      n += std::string("_") + rewrite_mode_name(rewrite);
    }
    std::replace(n.begin(), n.end(), '-', '_');
    return n;
  }
};

void PrintTo(const Cell& cell, std::ostream* os) { *os << cell.name(); }

std::vector<Cell> all_cells() {
  std::vector<std::string> engines = engine_names();
  for (const auto& e : extension_engine_names()) engines.push_back(e);
  engines.push_back("mhd");
  std::vector<Cell> cells;
  for (const auto& e : engines) {
    for (const ChunkerKind ch :
         {ChunkerKind::kRabin, ChunkerKind::kTttd, ChunkerKind::kGear}) {
      for (const IndexImpl ix :
           {IndexImpl::kMem, IndexImpl::kDisk, IndexImpl::kSampled}) {
        for (const bool framed : {false, true}) {
          cells.push_back({e, ch, ix, framed, RewriteMode::kNone});
        }
      }
    }
  }
  for (const auto& e : engines) {
    for (const RewriteMode rw : {RewriteMode::kCbr, RewriteMode::kHar}) {
      cells.push_back({e, ChunkerKind::kRabin, IndexImpl::kMem, true, rw});
    }
  }
  return cells;
}

RunSpec cell_spec(const Cell& cell) {
  RunSpec spec;
  spec.algorithm = cell.engine;
  EngineConfig& cfg = spec.engine;
  cfg.ecs = 512;
  cfg.sd = 8;
  cfg.bloom_bytes = 64 * 1024;
  // "mhd" is the paper's MHD without the bloom gate; "bf-mhd" forces it on.
  cfg.use_bloom = cell.engine != "mhd";
  cfg.chunker = cell.chunker;
  cfg.index_impl = cell.index;
  cfg.sample_bits = 4;
  cfg.framed = cell.framed;
  // Four KiB of manifests: every engine with a manifest cache evicts, and
  // the sampled tier goes through its champion loads.
  cfg.manifest_cache_bytes = 4 << 10;
  if (cell.rewrite != RewriteMode::kNone) {
    cfg.rewrite = cell.rewrite;
    cfg.container_bytes = 64 << 10;
    cfg.restore_cache_bytes = 256 << 10;
    // A 256 KiB file spans one CBR segment; two containers per segment
    // make CBR rewrite too.
    cfg.cbr_segment_bytes = 256 << 10;
    cfg.cbr_cap = 2;
    spec.verify = true;
    spec.measure_restore = true;
  }
  return spec;
}

void add_u64(Sha1& h, std::uint64_t v) {
  ByteVec b;
  append_le<std::uint64_t>(b, v);
  h.update(b);
}

void add_str(Sha1& h, const std::string& s) {
  add_u64(h, s.size());
  h.update(as_bytes(s));
}

struct CellDigests {
  std::string decisions;
  std::string ops;
  std::uint64_t rewritten_chunks = 0;
};

CellDigests run_cell(const Cell& cell) {
  const RunSpec spec = cell_spec(cell);
  const Corpus corpus(test_preset(42));
  RecordingBackend bottom;
  BackendStack stack(bottom, spec.engine);
  const ExperimentResult r = run_experiment(spec, corpus, stack);

  Sha1 h;
  add_str(h, r.algorithm);
  const EngineCounters& c = r.counters;
  for (const std::uint64_t v :
       {c.input_bytes, c.input_files, c.input_chunks, c.dup_chunks,
        c.dup_bytes, c.dup_slices, c.stored_chunks, c.files_with_data,
        c.hhr_operations, c.hhr_chunk_reloads, c.shm_merged_hashes,
        c.corruption_fallbacks, c.rewritten_chunks, c.rewritten_bytes,
        r.manifest_loads}) {
    add_u64(h, v);
  }
  for (const std::uint64_t v : r.stats.accesses) add_u64(h, v);
  add_u64(h, r.stats.bytes_written);
  add_u64(h, r.stats.bytes_read);
  add_u64(h, r.stats.transient_retries);
  add_str(h, r.index_impl);
  for (const std::uint64_t v :
       {r.index_ram_bytes, r.index_entries, std::uint64_t{r.sample_bits},
        r.sampled_hook_entries, r.sampled_hook_table_bytes, r.champion_loads,
        r.sampled_missed_dup_bytes, r.sampled_missed_dup_chunks,
        r.stored_data_bytes, r.physical_data_bytes,
        r.metadata.total_bytes(), r.metadata.total_inodes()}) {
    add_u64(h, v);
  }
  if (const ContainerBackend* cb = stack.containers()) {
    const ContainerStats s = cb->stats();
    for (const std::uint64_t v :
         {s.containers_sealed, s.packed_bytes, s.container_reads,
          s.container_read_bytes, s.cache_hits, s.cache_evictions,
          s.open_hits, r.restore.bytes, r.restore.container_reads,
          r.restore.cache_hits}) {
      add_u64(h, v);
    }
    add_str(h, std::to_string(r.restore.cfl));
  }
  for (int ns = 0; ns < static_cast<int>(Ns::kCount); ++ns) {
    std::vector<std::string> names = bottom.list(static_cast<Ns>(ns));
    std::sort(names.begin(), names.end());
    add_u64(h, static_cast<std::uint64_t>(ns));
    add_u64(h, names.size());
    for (const auto& name : names) {
      add_str(h, name);
      const auto bytes = bottom.get(static_cast<Ns>(ns), name);
      add_u64(h, bytes->size());
      h.update(*bytes);
    }
  }
  return {h.digest().hex(), bottom.ops_digest().hex(), c.rewritten_chunks};
}

/// cell name -> (decisions, ops), from the checked-in table.
std::map<std::string, std::pair<std::string, std::string>> golden_table() {
  std::map<std::string, std::pair<std::string, std::string>> table;
  std::ifstream in(MHD_DECISION_DIGESTS);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name, decisions, ops;
    if (fields >> name >> decisions >> ops) table[name] = {decisions, ops};
  }
  return table;
}

class DecisionDigestTest : public ::testing::TestWithParam<Cell> {};

TEST_P(DecisionDigestTest, MatchesGoldenTable) {
  const Cell& cell = GetParam();
  static const auto table = golden_table();
  const auto want = table.find(cell.name());
  ASSERT_NE(want, table.end())
      << cell.name() << " is missing from " << MHD_DECISION_DIGESTS;
  const CellDigests got = run_cell(cell);
  EXPECT_EQ(got.decisions, want->second.first)
      << "dedup decisions moved in " << cell.name();
  EXPECT_EQ(got.ops, want->second.second)
      << "backend call order moved in " << cell.name();
  if (cell.rewrite != RewriteMode::kNone) {
    EXPECT_GT(got.rewritten_chunks, 0u) << cell.name() << " rewrote nothing";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cells, DecisionDigestTest, ::testing::ValuesIn(all_cells()),
    [](const ::testing::TestParamInfo<Cell>& info) {
      return info.param.name();
    });

// Prints a fresh table (see the file comment for the command).
TEST(DecisionDigests, DISABLED_PrintTable) {
  for (const Cell& cell : all_cells()) {
    const CellDigests got = run_cell(cell);
    std::cout << "cell " << cell.name() << " " << got.decisions << " "
              << got.ops << "\n";
  }
}

}  // namespace
}  // namespace mhd
