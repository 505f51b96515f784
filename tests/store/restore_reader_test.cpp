#include "mhd/store/restore_reader.h"

#include <gtest/gtest.h>

#include "../dedup/engine_test_util.h"
#include "mhd/core/mhd_engine.h"
#include "mhd/store/fault_backend.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/store_errors.h"

namespace mhd {
namespace {

using testutil::NamedFile;
using testutil::random_bytes;

EngineConfig small_config() {
  EngineConfig cfg;
  cfg.ecs = 512;
  cfg.sd = 8;
  cfg.bloom_bytes = 64 * 1024;
  return cfg;
}

class RestoreReaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    a_ = random_bytes(150000, 1);
    b_ = a_;
    const ByteVec patch = random_bytes(5000, 2);
    std::copy(patch.begin(), patch.end(), b_.begin() + 70000);
    ObjectStore store(backend_);
    MhdEngine engine(store, small_config());
    testutil::run_files(engine, {{"a", a_}, {"b", b_}});
  }

  MemoryBackend backend_;
  ByteVec a_, b_;
};

TEST_F(RestoreReaderTest, StreamsByteExactly) {
  auto reader = RestoreReader::open(backend_, "b");
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->total_length(), b_.size());
  const ByteVec restored = read_all(*reader);
  EXPECT_TRUE(equal(restored, b_));
  EXPECT_TRUE(reader->ok());
  EXPECT_EQ(reader->produced(), b_.size());
}

TEST_F(RestoreReaderTest, SmallOddBuffersAgree) {
  auto reader = RestoreReader::open(backend_, "a");
  ASSERT_TRUE(reader.has_value());
  ByteVec restored;
  Byte buf[137];
  std::size_t n;
  while ((n = reader->read({buf, sizeof(buf)})) > 0) {
    restored.insert(restored.end(), buf, buf + n);
  }
  EXPECT_TRUE(equal(restored, a_));
}

TEST_F(RestoreReaderTest, UnknownFileReturnsNullopt) {
  EXPECT_FALSE(RestoreReader::open(backend_, "missing").has_value());
}

TEST_F(RestoreReaderTest, DamagedRepositoryStopsShortNotWrong) {
  // Remove all chunks: the stream must stop and flag !ok(), not fabricate.
  for (const auto& name : backend_.list(Ns::kDiskChunk)) {
    backend_.remove(Ns::kDiskChunk, name);
  }
  auto reader = RestoreReader::open(backend_, "a");
  ASSERT_TRUE(reader.has_value());
  const ByteVec out = read_all(*reader);
  EXPECT_TRUE(out.empty());
  EXPECT_FALSE(reader->ok());
}

TEST_F(RestoreReaderTest, TransientReadErrorIsRetriedInPlace) {
  // Read #1 is open()'s FileManifest get; #2 is the first chunk
  // get_range. Both fail once — the bounded retry must absorb each and
  // the restore must still be byte-exact.
  FaultInjectingBackend flaky(backend_, FaultPlan::parse("readerr@1,readerr@3"));
  auto reader = RestoreReader::open(flaky, "a");
  ASSERT_TRUE(reader.has_value());
  const ByteVec restored = read_all(*reader);
  EXPECT_TRUE(equal(restored, a_));
  EXPECT_TRUE(reader->ok());
  EXPECT_EQ(reader->transient_retries(), 1u);  // open's retry not counted
}

TEST_F(RestoreReaderTest, ReconstructRetriesTransientRangeRead) {
  // DedupEngine::reconstruct drains a RestoreReader, so it inherits the
  // bounded retry: read #1 is the FileManifest get, #2 the first DiskChunk
  // range read, which fails once and is retried in place.
  FaultInjectingBackend flaky(backend_, FaultPlan::parse("readerr@2"));
  ObjectStore store(flaky);
  const MhdEngine engine(store, small_config());
  const auto restored = engine.reconstruct("a");
  ASSERT_TRUE(restored.has_value());
  EXPECT_TRUE(equal(*restored, a_));
}

TEST_F(RestoreReaderTest, PersistentTransientErrorsExhaustRetryBudget) {
  // A persistently failing device must surface after the bounded retries
  // (never spin forever, never fabricate bytes).
  FaultInjectingBackend dead(backend_, FaultPlan::parse("readerr@2x64"));
  auto reader = RestoreReader::open(dead, "a");
  ASSERT_TRUE(reader.has_value());
  Byte buf[4096];
  EXPECT_THROW(reader->read({buf, sizeof(buf)}), TransientReadError);
}

TEST_F(RestoreReaderTest, ProgressAdvancesMonotonically) {
  auto reader = RestoreReader::open(backend_, "a");
  ASSERT_TRUE(reader.has_value());
  Byte buf[4096];
  std::uint64_t last = 0;
  while (reader->read({buf, sizeof(buf)}) > 0) {
    EXPECT_GE(reader->produced(), last);
    last = reader->produced();
  }
  EXPECT_EQ(last, reader->total_length());
}

}  // namespace
}  // namespace mhd
