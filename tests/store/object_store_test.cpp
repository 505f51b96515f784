#include "mhd/store/object_store.h"

#include <gtest/gtest.h>

#include "mhd/hash/sha1.h"
#include "mhd/store/memory_backend.h"

namespace mhd {
namespace {

class ObjectStoreTest : public ::testing::Test {
 protected:
  MemoryBackend backend_;
  ObjectStore store_{backend_};
};

TEST_F(ObjectStoreTest, ChunkWriterIsOneAccess) {
  {
    auto w = store_.open_chunk("c1");
    w.write(ByteVec(100, 1));
    w.write(ByteVec(50, 2));
  }  // destructor closes
  EXPECT_EQ(store_.stats().count(AccessKind::kChunkOut), 1u);
  EXPECT_EQ(store_.stats().bytes_written, 150u);
  EXPECT_EQ(backend_.content_bytes(Ns::kDiskChunk), 150u);
}

TEST_F(ObjectStoreTest, ChunkWriterReturnsWhereBytesLanded) {
  auto w = store_.open_chunk("c0");
  EXPECT_EQ(w.write(ByteVec(100, 1)), 0u);
  EXPECT_EQ(w.write(ByteVec(50, 2)), 100u);
  EXPECT_EQ(w.write(ByteVec(7, 3)), 150u);
  EXPECT_EQ(w.bytes_written(), 157u);
}

TEST_F(ObjectStoreTest, UnwrittenChunkWriterRecordsNothing) {
  {
    // Engines open their writer before they know whether the file stores
    // any chunk; one that received no bytes leaves no access and no object.
    auto w = store_.open_chunk("empty");
    w.close();
  }
  { auto w = store_.open_chunk("dropped"); }  // destructor closes
  EXPECT_EQ(store_.stats().count(AccessKind::kChunkOut), 0u);
  EXPECT_EQ(store_.stats().bytes_written, 0u);
  EXPECT_EQ(backend_.object_count(Ns::kDiskChunk), 0u);
}

TEST_F(ObjectStoreTest, MovedFromChunkWriterDoesNotDoubleCount) {
  {
    // A writer moved into a holder (here std::optional::emplace): the
    // moved-from temporary must not record a second access/byte count.
    std::optional<ChunkWriter> writer;
    writer.emplace(store_.open_chunk("moved"));
    writer->write(ByteVec(70, 3));
  }
  EXPECT_EQ(store_.stats().count(AccessKind::kChunkOut), 1u);
  EXPECT_EQ(store_.stats().bytes_written, 70u);
}

TEST_F(ObjectStoreTest, ChunkWriterCloseIdempotent) {
  auto w = store_.open_chunk("c2");
  w.write(ByteVec(10, 1));
  w.close();
  w.close();
  EXPECT_EQ(store_.stats().count(AccessKind::kChunkOut), 1u);
}

TEST_F(ObjectStoreTest, ReadChunkRangeCountsAccessAndBytes) {
  {
    auto w = store_.open_chunk("c3");
    w.write(ByteVec(100, 9));
  }
  const auto got = store_.read_chunk_range("c3", 10, 20);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->size(), 20u);
  EXPECT_EQ(store_.stats().count(AccessKind::kChunkIn), 1u);
  EXPECT_EQ(store_.stats().bytes_read, 20u);
}

TEST_F(ObjectStoreTest, HookHitCountsAsHookIn) {
  const Digest h = Sha1::hash(as_bytes("hook"));
  store_.put_hook(h, ByteVec(20, 5));
  EXPECT_EQ(store_.stats().count(AccessKind::kHookOut), 1u);

  const auto got = store_.get_hook(h, AccessKind::kSmallChunkQuery);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(store_.stats().count(AccessKind::kHookIn), 1u);
  EXPECT_EQ(store_.stats().count(AccessKind::kSmallChunkQuery), 0u);
}

TEST_F(ObjectStoreTest, HookMissCountsAsQuery) {
  const Digest h = Sha1::hash(as_bytes("missing"));
  const auto got = store_.get_hook(h, AccessKind::kSmallChunkQuery);
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(store_.stats().count(AccessKind::kHookIn), 0u);
  EXPECT_EQ(store_.stats().count(AccessKind::kSmallChunkQuery), 1u);
}

TEST_F(ObjectStoreTest, ManifestRoundTripCounts) {
  store_.put_manifest("m1", ByteVec(74, 1));
  const auto got = store_.get_manifest("m1");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(store_.stats().count(AccessKind::kManifestOut), 1u);
  EXPECT_EQ(store_.stats().count(AccessKind::kManifestIn), 1u);
}

TEST_F(ObjectStoreTest, FileManifestRoundTrip) {
  // Engines only write FileManifests; restores read them through the
  // backend (RestoreReader), outside the access accounting.
  store_.put_file_manifest("f1", ByteVec(32, 1));
  EXPECT_EQ(backend_.get(Ns::kFileManifest, "f1"), ByteVec(32, 1));
  EXPECT_EQ(store_.stats().count(AccessKind::kFileManifestOut), 1u);
  EXPECT_EQ(store_.stats().bytes_written, 32u);
}

TEST(StorageStats, SummaryHelpers) {
  StorageStats s;
  s.record(AccessKind::kChunkOut, 3);
  s.record(AccessKind::kSmallChunkQuery, 5);
  s.record(AccessKind::kBigChunkQuery, 2);
  EXPECT_EQ(s.total_accesses(), 10u);
  EXPECT_EQ(s.io_accesses(), 3u);

  StorageStats t;
  t.record(AccessKind::kChunkOut, 1);
  t.bytes_read = 7;
  s += t;
  EXPECT_EQ(s.count(AccessKind::kChunkOut), 4u);
  EXPECT_EQ(s.bytes_read, 7u);
}

TEST(StorageStats, ToStringMentionsNonZeroKinds) {
  StorageStats s;
  s.record(AccessKind::kHookIn, 2);
  const std::string str = s.to_string();
  EXPECT_NE(str.find("Hook Input"), std::string::npos);
  EXPECT_EQ(str.find("Manifest Output"), std::string::npos);
}

}  // namespace
}  // namespace mhd
