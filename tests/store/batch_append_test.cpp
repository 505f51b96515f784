// Batched stream appends (StorageBackend::append_all). Every backend in
// src/ must give a batch the objects, bytes, sizes and failures of one
// append per piece; a framed writer's record table must serve range reads
// after a batch; a container batch that throws must leave the container
// layer matching the bytes below it; and batches must reach the bottom in
// few calls: one per flush group for an MHD ingest, one per container for
// a container batch. Four threads batch through one FramedBackend at the
// end; the restore label runs this suite under the tsan-restore preset.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>
#include <typeinfo>

#include "counting_backend.h"
#include "mhd/chunk/byte_source.h"
#include "mhd/core/mhd_engine.h"
#include "mhd/store/container_store.h"
#include "mhd/store/fault_backend.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/framing.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/object_store.h"
#include "mhd/store/scoped_backend.h"
#include "mhd/store/scrub.h"
#include "mhd/store/store_errors.h"
#include "mhd/store/sync_backend.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("mhd_batch_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const fs::path& path() const { return dir_; }

 private:
  static inline std::atomic<int> counter_{0};
  fs::path dir_;
};

ByteVec random_piece(Xoshiro256& rng, std::size_t size) {
  ByteVec out(size);
  for (auto& b : out) b = static_cast<Byte>(rng());
  return out;
}

using Batch = std::vector<ByteVec>;

/// Batches of 0, 1, 2 and 1,100 pieces (past IOV_MAX), a seventh of them
/// empty, and one of pieces larger than a FramedBackend inner call, which
/// also cross many 64 KiB containers.
std::vector<Batch> seeded_batches(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  const auto small = [&] {
    return random_piece(rng, rng() % 7 == 0 ? 0 : 1 + rng() % 600);
  };
  std::vector<Batch> batches(5);
  batches[1].push_back(small());
  for (int i = 0; i < 2; ++i) batches[2].push_back(small());
  for (int i = 0; i < 1100; ++i) batches[3].push_back(small());
  for (const std::size_t size : {300u << 10, 700u << 10, 0u, 5u, 300u << 10}) {
    batches[4].push_back(random_piece(rng, size));
  }
  return batches;
}

std::vector<ByteSpan> spans(const Batch& batch) {
  return std::vector<ByteSpan>(batch.begin(), batch.end());
}

constexpr std::uint64_t kContainerBytes = 64 << 10;

using Layer = std::function<std::unique_ptr<StorageBackend>(StorageBackend&)>;

struct StackCase {
  std::string name;
  bool file = false;  ///< FileBackend at the bottom, else MemoryBackend
  std::vector<Layer> layers;
};

void PrintTo(const StackCase& c, std::ostream* os) { *os << c.name; }

std::unique_ptr<StorageBackend> framed(StorageBackend& inner) {
  return std::make_unique<FramedBackend>(inner);
}

std::vector<StackCase> stack_cases() {
  const Layer framed_layer = framed;
  return {
      {"memory", false, {}},
      {"file", true, {}},
      {"framed_memory", false, {framed_layer}},
      {"framed_file", true, {framed_layer}},
      {"containers",
       false,
       {framed_layer,
        [](StorageBackend& inner) {
          return std::make_unique<ContainerBackend>(
              inner, ContainerConfig{kContainerBytes, 1 << 20});
        }}},
      {"scoped",
       false,
       {framed_layer,
        [](StorageBackend& inner) {
          return std::make_unique<ScopedBackend>(inner, "t1.");
        }}},
      {"sync",
       false,
       {framed_layer,
        [](StorageBackend& inner) {
          return std::make_unique<SyncBackend>(inner);
        }}},
      {"fault",
       false,
       {[](StorageBackend& inner) {
         return std::make_unique<FaultInjectingBackend>(inner, FaultPlan{});
       }}},
  };
}

/// One storage stack, bottom first; destroyed top first, so a
/// ContainerBackend seals its open container into the layers below.
class Stack {
 public:
  explicit Stack(const StackCase& c) {
    if (c.file) {
      dir_ = std::make_unique<TempDir>();
      layers_.push_back(std::make_unique<FileBackend>(dir_->path()));
    } else {
      layers_.push_back(std::make_unique<MemoryBackend>());
    }
    for (const Layer& layer : c.layers) layers_.push_back(layer(top()));
  }
  ~Stack() { release_upper(); }

  StorageBackend& top() { return *layers_.back(); }
  StorageBackend& bottom() { return *layers_.front(); }
  void release_upper() {
    while (layers_.size() > 1) layers_.pop_back();
  }

 private:
  std::unique_ptr<TempDir> dir_;
  std::vector<std::unique_ptr<StorageBackend>> layers_;
};

/// Every object of `backend`, namespace by namespace, with its bytes.
std::vector<std::pair<std::string, ByteVec>> all_objects(
    const StorageBackend& backend) {
  std::vector<std::pair<std::string, ByteVec>> out;
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    const Ns ns = static_cast<Ns>(i);
    for (const auto& name : backend.list(ns)) {
      out.emplace_back(std::string(ns_name(ns)) + "/" + name,
                       backend.get(ns, name).value_or(ByteVec{}));
    }
  }
  return out;
}

class BatchDifferential : public ::testing::TestWithParam<StackCase> {};

TEST_P(BatchDifferential, BatchMatchesOneAppendPerPiece) {
  const std::vector<Batch> batches = seeded_batches(29);
  Stack batched(GetParam());
  Stack single(GetParam());
  // The empty batch goes to an object of its own, which it must not
  // create; the others alternate between two objects.
  const auto name_of = [](std::size_t b) {
    return b == 0 ? std::string("e") : "c" + std::to_string(b % 2);
  };
  std::vector<ByteVec> expected(2);
  for (std::size_t b = 0; b < batches.size(); ++b) {
    const std::vector<ByteSpan> pieces = spans(batches[b]);
    std::size_t landed = 99;
    batched.top().append_all(Ns::kDiskChunk, name_of(b), pieces, &landed);
    EXPECT_EQ(landed, pieces.size()) << "batch " << b;
    for (const ByteSpan piece : pieces) {
      single.top().append(Ns::kDiskChunk, name_of(b), piece);
      mhd::append(expected[b % 2], piece);
    }
  }
  EXPECT_FALSE(batched.top().exists(Ns::kDiskChunk, "e"));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const std::string name = "c" + std::to_string(i);
    batched.top().seal(Ns::kDiskChunk, name);
    single.top().seal(Ns::kDiskChunk, name);
    EXPECT_EQ(batched.top().get(Ns::kDiskChunk, name), expected[i]) << name;
  }
  EXPECT_EQ(batched.top().content_bytes(Ns::kDiskChunk),
            single.top().content_bytes(Ns::kDiskChunk));
  EXPECT_EQ(batched.top().object_count(Ns::kDiskChunk), 2u);

  batched.release_upper();
  single.release_upper();
  const auto got = all_objects(batched.bottom());
  const auto want = all_objects(single.bottom());
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first);
    EXPECT_TRUE(got[i].second == want[i].second) << got[i].first;
  }
}

INSTANTIATE_TEST_SUITE_P(EveryBackend, BatchDifferential,
                         ::testing::ValuesIn(stack_cases()),
                         [](const auto& info) { return info.param.name; });

TEST(BatchAppend, WriterTableServesEachByteOnceAfterBatches) {
  const std::vector<Batch> batches = seeded_batches(31);
  CountingBackend mem;
  FramedBackend framed(mem);
  std::vector<ByteVec> pieces;
  for (const std::size_t b : {3u, 4u, 1u}) {
    framed.append_all(Ns::kDiskChunk, "c0", spans(batches[b]));
    for (const ByteVec& piece : batches[b]) pieces.push_back(piece);
  }
  framed.seal(Ns::kDiskChunk, "c0");

  mem.reset_read_bytes();
  const std::uint64_t reads_before = mem.reads(Ns::kDiskChunk);
  std::uint64_t at = 0;
  std::uint64_t records = 0;  // header and payload bytes of the pieces read
  std::uint64_t read = 0;
  for (const ByteVec& piece : pieces) {
    if (!piece.empty()) {
      ASSERT_EQ(framed.get_range(Ns::kDiskChunk, "c0", at, piece.size()),
                piece)
          << "at " << at;
      records += framing::kHeaderBytes + piece.size();
      ++read;
    }
    at += piece.size();
  }
  // One inner read per range, of its own record only: the writer's table
  // served them all, and no read of the whole stream came first.
  EXPECT_EQ(mem.reads(Ns::kDiskChunk) - reads_before, read);
  EXPECT_EQ(mem.read_bytes(), records);
}

/// What a framed writer leaves after a fault plan fires inside its appends.
struct FaultOutcome {
  std::string error = "none";  ///< dynamic type of the append's exception
  std::string read;            ///< verdict of a range read afterwards
  std::uint64_t read_bytes = 0;  ///< what that read pulled from below
  std::string fsck;
  std::vector<std::pair<std::string, ByteVec>> objects;
};

FaultOutcome write_through_fault(const std::string& plan, const Batch& batch,
                                 bool batched) {
  FaultOutcome out;
  CountingBackend mem;
  FaultInjectingBackend faulty(mem, FaultPlan::parse(plan));
  FramedBackend framed(faulty);
  try {
    if (batched) {
      framed.append_all(Ns::kDiskChunk, "c0", spans(batch));
    } else {
      for (const ByteVec& piece : batch) {
        framed.append(Ns::kDiskChunk, "c0", piece);
      }
    }
  } catch (const StoreError& e) {
    out.error = typeid(e).name();
  }
  try {
    framed.seal(Ns::kDiskChunk, "c0");  // as a ChunkWriter's close does
  } catch (const StoreError&) {
  }
  mem.reset_read_bytes();
  try {
    const auto range = framed.get_range(Ns::kDiskChunk, "c0", 0, 1);
    out.read = range ? "bytes" : "absent";
  } catch (const StoreError& e) {
    out.read = typeid(e).name();
  }
  out.read_bytes = mem.read_bytes();
  out.fsck = fsck_repository(mem.raw(), /*repair=*/false).to_string();
  out.objects = all_objects(mem.raw());
  return out;
}

class BatchFault : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchFault, FailsLikeOneAppendPerPiece) {
  Batch batch;
  Xoshiro256 rng(37);
  for (int i = 0; i < 10; ++i) batch.push_back(random_piece(rng, 200 + i));
  const FaultOutcome got = write_through_fault(GetParam(), batch, true);
  const FaultOutcome want = write_through_fault(GetParam(), batch, false);
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.read, want.read);
  // A discarded writer's table sends the first read down whole.
  EXPECT_EQ(got.read_bytes, want.read_bytes);
  EXPECT_EQ(got.fsck, want.fsck);
  EXPECT_TRUE(got.objects == want.objects);
}

// Mutations 1..10 are the appends, 11 the seal.
INSTANTIATE_TEST_SUITE_P(Plans, BatchFault,
                         ::testing::Values("", "fail@1", "fail@4", "fail@10",
                                           "torn@1:0.5", "torn@4", "torn@10",
                                           "torn@11:0.5", "crash@6:0.3"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name.empty() ? std::string("none") : name;
                         });

/// A batch through ContainerBackend under `plan`, then the next chunk, which
/// must read back byte-exact from the open container and, after a flush,
/// from the containers below. Returns the objects below.
std::vector<std::pair<std::string, ByteVec>> containers_through_fault(
    const std::string& plan, const Batch& batch, const ByteVec& next,
    bool batched) {
  MemoryBackend mem;
  FaultInjectingBackend faulty(mem, FaultPlan::parse(plan));
  FramedBackend framed(faulty);
  {
    ContainerBackend containers(framed, {kContainerBytes, 1 << 20});
    try {
      if (batched) {
        containers.append_all(Ns::kDiskChunk, "c0", spans(batch));
      } else {
        for (const ByteVec& piece : batch) {
          containers.append(Ns::kDiskChunk, "c0", piece);
        }
      }
    } catch (const BackendIoError&) {
    }
    containers.append(Ns::kDiskChunk, "c1", next);
    containers.seal(Ns::kDiskChunk, "c1");
    EXPECT_EQ(containers.get(Ns::kDiskChunk, "c1"), next) << "open image";
    containers.flush();
    containers.drop_cache();
    EXPECT_EQ(containers.get(Ns::kDiskChunk, "c1"), next) << "containers";
  }
  return all_objects(mem);
}

TEST(BatchAppend, ContainerBatchThatThrowsLeavesTheNextChunkExact) {
  // 12 pieces of 10-12 KiB over 64 KiB containers: mutations 1-6 fill the
  // first container, the sixth with part of a piece, and the seventh seals
  // it; the plans fail inside a run, at its split piece and at the seal.
  Batch batch;
  Xoshiro256 rng(41);
  for (int i = 0; i < 12; ++i) {
    batch.push_back(random_piece(rng, (10 << 10) + rng() % 2048));
  }
  const ByteVec next = random_piece(rng, 3000);
  for (const char* plan :
       {"fail@1", "fail@3", "fail@6", "fail@7", "fail@9", "fail@13"}) {
    SCOPED_TRACE(plan);
    EXPECT_TRUE(containers_through_fault(plan, batch, next, true) ==
                containers_through_fault(plan, batch, next, false));
  }
}

TEST(BatchAppend, MhdIngestAppendsOncePerFlushGroup) {
  CountingBackend mem;
  FramedBackend framed(mem);
  ObjectStore store(framed);
  EngineConfig cfg;
  cfg.ecs = 4096;
  cfg.sd = 64;
  cfg.bloom_bytes = 64 << 10;
  MhdEngine engine(store, cfg);
  Xoshiro256 rng(43);
  const ByteVec data = random_piece(rng, 2 << 20);
  MemorySource src(data);
  engine.add_file("image", src);

  // Random data: every chunk is new, each flush group writes one Hook,
  // and a group's bytes go down with one call, then the seal with one.
  const std::uint64_t groups = mem.raw().object_count(Ns::kHook);
  ASSERT_GT(engine.counters().stored_chunks, 4 * groups);
  EXPECT_LE(mem.appends(Ns::kDiskChunk), groups + 1);
  engine.finish();
  EXPECT_EQ(engine.reconstruct("image"), data);
}

TEST(BatchAppend, ContainerBatchCallsOncePerContainer) {
  CountingBackend below;
  ContainerBackend containers(below, {kContainerBytes, 1 << 20});
  Batch batch;
  Xoshiro256 rng(47);
  for (int i = 0; i < 40; ++i) batch.push_back(random_piece(rng, 4096));
  // 160 KiB: two full 64 KiB containers and half of a third.
  containers.append_all(Ns::kDiskChunk, "c0", spans(batch));
  EXPECT_EQ(below.appends(Ns::kContainer), 3u);
  EXPECT_EQ(containers.stats().containers_sealed, 2u);
  containers.seal(Ns::kDiskChunk, "c0");
  ByteVec all;
  for (const ByteVec& piece : batch) mhd::append(all, piece);
  EXPECT_EQ(containers.get(Ns::kDiskChunk, "c0"), all);
}

TEST(BatchAppend, FourThreadsBatchThroughOneFramedBackend) {
  TempDir dir;
  FileBackend file(dir.path());
  FramedBackend framed(file);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(100 + t);
      for (int k = 0; k < 12; ++k) {
        const std::string name = "t" + std::to_string(t) + "-" +
                                 std::to_string(k);
        Batch batch;
        ByteVec all;
        for (int i = 0; i < 24; ++i) {
          batch.push_back(random_piece(rng, 1 + rng() % 9000));
          mhd::append(all, batch.back());
        }
        framed.append_all(Ns::kDiskChunk, name, spans(batch));
        framed.append_all(Ns::kDiskChunk, name, spans(batch));
        const ByteVec once = all;
        mhd::append(all, once);
        framed.seal(Ns::kDiskChunk, name);
        if (framed.get_range(Ns::kDiskChunk, name, 100, 5000) !=
                ByteVec(all.begin() + 100, all.begin() + 5100) ||
            framed.get(Ns::kDiskChunk, name) != all) {
          ++mismatches;
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(framed.object_count(Ns::kDiskChunk), 48u);
}

}  // namespace
}  // namespace mhd
