// Durability satellites: atomic put (temp+rename), short-write checking,
// get_range overflow rejection, reopen adoption across mixed mutation
// cycles, stale-temp sweeping, and ChunkWriter exception safety.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <limits>

#include "mhd/store/fault_backend.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/object_store.h"
#include "mhd/store/store_errors.h"

namespace mhd {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("mhd_durability_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const fs::path& path() const { return dir_; }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

ByteVec bytes_of(const std::string& s) { return to_vec(as_bytes(s)); }

TEST(FileBackendDurability, PutLeavesNoTempAndReplacesAtomically) {
  TempDir tmp;
  FileBackend backend(tmp.path());
  backend.put(Ns::kManifest, "m0", bytes_of("version-one"));
  backend.put(Ns::kManifest, "m0", bytes_of("v2"));
  EXPECT_EQ(backend.get(Ns::kManifest, "m0"), bytes_of("v2"));
  EXPECT_EQ(backend.content_bytes(Ns::kManifest), 2u);
  EXPECT_EQ(backend.object_count(Ns::kManifest), 1u);
  // No temp debris after successful puts.
  for (const auto& entry : fs::recursive_directory_iterator(tmp.path())) {
    if (entry.is_regular_file()) {
      EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
    }
  }
}

// Opening lists no directory, so a stale temp outlives a reopen. Until a
// sweep (gc, fsck repair, serve --fsck-on-start) removes it, nothing
// lists, counts or reads it, and a put of the same name replaces it.
TEST(FileBackendDurability, StaleTempIsKeptOnReopenUnlistedUntilSwept) {
  TempDir tmp;
  {
    FileBackend backend(tmp.path());
    backend.put(Ns::kIndex, "m0", bytes_of("intact"));
  }
  // Simulate a crash mid-put: a half-written temp beside the object.
  const fs::path stale = tmp.path() / "index" / "m0.tmp";
  std::ofstream(stale, std::ios::binary) << "half-writ";
  ASSERT_TRUE(fs::exists(stale));

  FileBackend reopened(tmp.path());
  EXPECT_TRUE(fs::exists(stale));  // opening lists nothing
  EXPECT_EQ(reopened.object_count(Ns::kIndex), 1u);
  EXPECT_EQ(reopened.content_bytes(Ns::kIndex), 6u);
  EXPECT_EQ(reopened.list(Ns::kIndex),
            std::vector<std::string>{"m0"});
  EXPECT_EQ(reopened.get(Ns::kIndex, "m0"), bytes_of("intact"));

  reopened.sweep_temps();
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_EQ(reopened.get(Ns::kIndex, "m0"), bytes_of("intact"));

  // A put over a stale temp of its own name truncates it first.
  std::ofstream(stale, std::ios::binary) << "a much longer half-written body";
  reopened.put(Ns::kIndex, "m0", bytes_of("v2"));
  EXPECT_FALSE(fs::exists(stale));
  EXPECT_EQ(reopened.get(Ns::kIndex, "m0"), bytes_of("v2"));
  EXPECT_EQ(reopened.content_bytes(Ns::kIndex), 2u);
}

TEST(FileBackendDurability, ReopenAdoptsMixedMutationHistory) {
  TempDir tmp;
  {
    FileBackend backend(tmp.path());
    backend.append(Ns::kDiskChunk, "c0", bytes_of("0123"));
    backend.append(Ns::kDiskChunk, "c0", bytes_of("4567"));
    backend.append(Ns::kDiskChunk, "c1", bytes_of("abcdef"));
    backend.put(Ns::kHook, "h0", bytes_of("hook0"));
    backend.put(Ns::kHook, "h1", bytes_of("hook1!"));
    backend.put(Ns::kHook, "h1", bytes_of("h1"));     // shrink via replace
    backend.remove(Ns::kHook, "h0");
    backend.put(Ns::kManifest, "m0", bytes_of("manifest"));
    backend.remove(Ns::kDiskChunk, "c1");
    backend.append(Ns::kDiskChunk, "c2", bytes_of("zz"));
  }
  FileBackend reopened(tmp.path());
  EXPECT_EQ(reopened.object_count(Ns::kDiskChunk), 2u);
  EXPECT_EQ(reopened.content_bytes(Ns::kDiskChunk), 8u + 2u);
  EXPECT_EQ(reopened.object_count(Ns::kHook), 1u);
  EXPECT_EQ(reopened.content_bytes(Ns::kHook), 2u);
  EXPECT_EQ(reopened.object_count(Ns::kManifest), 1u);
  EXPECT_EQ(reopened.content_bytes(Ns::kManifest), 8u);
  // Counters keep tracking correctly after adoption.
  reopened.append(Ns::kDiskChunk, "c0", bytes_of("89"));
  EXPECT_EQ(reopened.content_bytes(Ns::kDiskChunk), 12u);
  EXPECT_EQ(reopened.get(Ns::kDiskChunk, "c0"), bytes_of("0123456789"));
}

TEST(BackendDurability, GetRangeRejectsOverflowingRanges) {
  TempDir tmp;
  FileBackend file(tmp.path());
  MemoryBackend mem;
  for (StorageBackend* backend : {static_cast<StorageBackend*>(&file),
                                  static_cast<StorageBackend*>(&mem)}) {
    backend->put(Ns::kDiskChunk, "c0", bytes_of("0123456789"));
    EXPECT_TRUE(backend->get_range(Ns::kDiskChunk, "c0", 0, 10).has_value());
    EXPECT_TRUE(backend->get_range(Ns::kDiskChunk, "c0", 10, 0).has_value());
    EXPECT_EQ(backend->get_range(Ns::kDiskChunk, "c0", 11, 0), std::nullopt);
    // offset + length wraps u64 to a small number; must still be rejected.
    EXPECT_EQ(backend->get_range(Ns::kDiskChunk, "c0", 2,
                                 std::numeric_limits<std::uint64_t>::max()),
              std::nullopt);
    EXPECT_EQ(backend->get_range(Ns::kDiskChunk, "c0",
                                 std::numeric_limits<std::uint64_t>::max(), 2),
              std::nullopt);
  }
}

TEST(ChunkWriterDurability, DestructorSwallowsBackendFailure) {
  MemoryBackend raw;
  // Mutation 1 = the framed append, mutation 2 = the seal-record append
  // issued by close(): the destructor must absorb that failure.
  FaultInjectingBackend faulty(raw, FaultPlan::parse("fail@2"));
  FramedBackend framed(faulty);
  ObjectStore store(framed);
  {
    ChunkWriter writer = store.open_chunk("c0");
    writer.write(bytes_of("payload"));
    // No explicit close: destructor seals, backend throws, nothing escapes.
  }
  // The stream is unsealed (the seal append failed): reads see corrupt,
  // never a silent partial answer.
  EXPECT_THROW(framed.get(Ns::kDiskChunk, "c0"), CorruptObjectError);
}

TEST(ChunkWriterDurability, ExplicitCloseSurfacesBackendFailure) {
  MemoryBackend raw;
  FaultInjectingBackend faulty(raw, FaultPlan::parse("fail@2"));
  FramedBackend framed(faulty);
  ObjectStore store(framed);
  ChunkWriter writer = store.open_chunk("c0");
  writer.write(bytes_of("payload"));
  EXPECT_THROW(writer.close(), BackendIoError);
}

TEST(ChunkWriterDurability, CloseSealsTheStream) {
  MemoryBackend raw;
  FramedBackend framed(raw);
  ObjectStore store(framed);
  {
    ChunkWriter writer = store.open_chunk("c0");
    writer.write(bytes_of("part-a"));
    writer.write(bytes_of("part-b"));
    writer.close();
    writer.close();  // idempotent: exactly one seal record
  }
  EXPECT_EQ(framed.get(Ns::kDiskChunk, "c0"), bytes_of("part-apart-b"));
  const auto range = framed.get_range(Ns::kDiskChunk, "c0", 4, 4);
  ASSERT_TRUE(range.has_value());
  EXPECT_EQ(*range, bytes_of("-apa"));
}

}  // namespace
}  // namespace mhd
