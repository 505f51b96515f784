// fsck_repository: detection and repair across every damage class —
// torn chunk tails (truncate + reseal), bit rot (quarantine), dangling
// hooks (drop), broken references (report only), orphans (informational).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>

#include "mhd/format/file_manifest.h"
#include "mhd/hash/sha1.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/framing.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/scrub.h"

namespace mhd {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("mhd_fsck_" + std::to_string(::getpid()) + "_" +
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

/// A minimal healthy framed repository: one two-record chunk, one opaque
/// manifest, one hook targeting it, one FileManifest covering record 1.
struct Repo {
  std::string chunk, manifest, hook, file_manifest;
  ByteVec rec1, rec2;

  explicit Repo(StorageBackend& raw) {
    FramedBackend framed(raw);
    rec1 = bytes_of("first-record-payload-AAAA");
    rec2 = bytes_of("second-record-BB");
    const Digest cd = Sha1::hash(as_bytes(std::string("chunk")));
    const Digest md = Sha1::hash(as_bytes(std::string("manifest")));
    const Digest hd = Sha1::hash(as_bytes(std::string("hook")));
    chunk = cd.hex();
    manifest = md.hex();
    hook = hd.hex();
    framed.append(Ns::kDiskChunk, chunk, rec1);
    framed.append(Ns::kDiskChunk, chunk, rec2);
    framed.seal(Ns::kDiskChunk, chunk);
    framed.put(Ns::kManifest, manifest, bytes_of("opaque-engine-bin"));
    framed.put(Ns::kHook, hook, to_vec(md.span()));
    FileManifest fm("f.img");
    fm.add_range(cd, 0, rec1.size(), /*coalesce=*/false);
    file_manifest = Sha1::hash(as_bytes(std::string("f.img"))).hex();
    framed.put(Ns::kFileManifest, file_manifest, fm.serialize());
  }
};

void flip_middle_byte(StorageBackend& raw, Ns ns, const std::string& name) {
  auto bytes = raw.get(ns, name);
  ASSERT_TRUE(bytes.has_value());
  (*bytes)[bytes->size() / 2] ^= 0x01;
  raw.put(ns, name, *bytes);
}

TEST(Fsck, CleanRepositoryPassesFsck) {
  MemoryBackend raw;
  Repo repo(raw);
  const auto report = fsck_repository(raw, /*repair=*/false);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.objects, 4u);
  EXPECT_EQ(report.clean_objects, 4u);
  EXPECT_TRUE(report.issues.empty());
}

TEST(Fsck, SingleBitFlipInEveryNamespaceIsDetectedAndPinpointed) {
  const std::array<Ns, 4> all = {Ns::kDiskChunk, Ns::kHook, Ns::kManifest,
                                 Ns::kFileManifest};
  for (const Ns ns : all) {
    MemoryBackend raw;
    Repo repo(raw);
    const std::string name = ns == Ns::kDiskChunk     ? repo.chunk
                             : ns == Ns::kHook        ? repo.hook
                             : ns == Ns::kManifest    ? repo.manifest
                                                      : repo.file_manifest;
    flip_middle_byte(raw, ns, name);
    const auto report = fsck_repository(raw, /*repair=*/false);
    EXPECT_FALSE(report.clean()) << ns_name(ns);
    // A flip in a record length field is indistinguishable from a tear, so
    // chunks may classify as torn rather than corrupt — both are pinpointed.
    EXPECT_GE(report.corrupt + report.torn, 1u) << ns_name(ns);
    const bool pinpointed = std::any_of(
        report.issues.begin(), report.issues.end(), [&](const FsckIssue& i) {
          return i.ns == ns && i.name == name &&
                 (i.kind == FsckIssue::Kind::kCorrupt ||
                  i.kind == FsckIssue::Kind::kTornTail);
        });
    EXPECT_TRUE(pinpointed) << ns_name(ns) << "/" << name;
  }
}

TEST(Fsck, TornChunkTailIsTruncatedAndResealed) {
  MemoryBackend raw;
  Repo repo(raw);
  // Tear off the seal record plus part of record 2: record 1 must survive.
  auto bytes = *raw.get(Ns::kDiskChunk, repo.chunk);
  bytes.resize(bytes.size() - framing::kSealBytes - 5);
  raw.put(Ns::kDiskChunk, repo.chunk, bytes);

  const auto before = fsck_repository(raw, /*repair=*/false);
  EXPECT_FALSE(before.clean());
  EXPECT_EQ(before.torn, 1u);
  EXPECT_EQ(before.repaired, 0u);
  EXPECT_EQ(*raw.get(Ns::kDiskChunk, repo.chunk), bytes)
      << "check mode must not mutate the repository";

  const auto repair = fsck_repository(raw, /*repair=*/true);
  EXPECT_EQ(repair.torn, 1u);
  EXPECT_EQ(repair.repaired, 1u);
  EXPECT_EQ(repair.salvaged_bytes, repo.rec1.size());

  // The salvaged prefix reads back verified, and the repo is clean again
  // (the FileManifest only ever referenced record 1).
  FramedBackend framed(raw);
  EXPECT_EQ(framed.get_range(Ns::kDiskChunk, repo.chunk, 0, repo.rec1.size()),
            repo.rec1);
  EXPECT_TRUE(fsck_repository(raw, /*repair=*/false).clean());
}

TEST(Fsck, CorruptManifestIsQuarantinedAndItsHookDropped) {
  MemoryBackend raw;
  Repo repo(raw);
  flip_middle_byte(raw, Ns::kManifest, repo.manifest);

  const auto repair = fsck_repository(raw, /*repair=*/true);
  EXPECT_EQ(repair.corrupt, 1u);
  EXPECT_EQ(repair.dangling_hooks, 1u);
  EXPECT_EQ(repair.repaired, 2u);  // quarantined manifest + dropped hook
  EXPECT_FALSE(raw.exists(Ns::kManifest, repo.manifest));
  EXPECT_FALSE(raw.exists(Ns::kHook, repo.hook));
  EXPECT_TRUE(fsck_repository(raw, /*repair=*/false).clean());
}

TEST(Fsck, BrokenReferencesAreReportedNeverRepaired) {
  MemoryBackend raw;
  Repo repo(raw);
  FramedBackend framed(raw);
  FileManifest fm("ghost.img");
  fm.add_range(Sha1::hash(as_bytes(std::string("no-such-chunk"))), 0, 16,
               false);
  const std::string name = Sha1::hash(as_bytes(std::string("ghost.img"))).hex();
  framed.put(Ns::kFileManifest, name, fm.serialize());

  const auto repair = fsck_repository(raw, /*repair=*/true);
  EXPECT_EQ(repair.broken_refs, 1u);
  EXPECT_FALSE(repair.clean());
  EXPECT_TRUE(raw.exists(Ns::kFileManifest, name))
      << "user data is never auto-deleted";
}

TEST(Fsck, OrphanChunksAreInformationalOnly) {
  MemoryBackend raw;
  Repo repo(raw);
  FramedBackend framed(raw);
  framed.put(Ns::kDiskChunk, "deadbeef", bytes_of("unreferenced"));
  const auto report = fsck_repository(raw, /*repair=*/false);
  EXPECT_EQ(report.orphans, 1u);
  EXPECT_TRUE(report.clean()) << "orphans are gc's job, not damage";
}

TEST(Fsck, QuarantinePreservesOriginalBytesOnFileBackend) {
  TempDir tmp;
  FileBackend backend(tmp.path());
  Repo repo(backend);
  flip_middle_byte(backend, Ns::kManifest, repo.manifest);
  const ByteVec corrupted = *backend.get(Ns::kManifest, repo.manifest);

  fsck_repository(backend, /*repair=*/true, tmp.path() / "quarantine");
  EXPECT_FALSE(backend.exists(Ns::kManifest, repo.manifest));
  const fs::path preserved =
      tmp.path() / "quarantine" / "manifests" / repo.manifest;
  ASSERT_TRUE(fs::exists(preserved));
  std::ifstream in(preserved, std::ios::binary);
  ByteVec on_disk((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_EQ(on_disk, corrupted);
}

}  // namespace
}  // namespace mhd
