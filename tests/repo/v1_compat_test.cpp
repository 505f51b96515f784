// Repositories written before packs (descriptor version 1, every object a
// file of its own) stay readable and writable. data/v1_repo is what
// `dedup_cli store v1_repo a.img --framed --ecs=1024 --sd=8` wrote with
// the loose layout; data/v1_repo_then_b.objects lists, per namespace, the
// name and SHA-1 of every object that layout held after a second
// `dedup_cli store v1_repo b.img`. a.img and b.img are regenerated here.
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "mhd/core/mhd_engine.h"
#include "mhd/hash/sha1.h"
#include "mhd/repo/repository.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/framing.h"
#include "mhd/store/maintenance.h"
#include "mhd/store/restore_reader.h"
#include "mhd/store/scrub.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

namespace fs = std::filesystem;

const fs::path kData = MHD_REPO_TEST_DATA;

Flags no_flags() {
  char prog[] = "prog";
  char* argv[] = {prog};
  return Flags(1, argv);
}

/// `n` bytes of SplitMix64 output in counter mode, little-endian words.
ByteVec stream(std::uint64_t seed, std::size_t n) {
  ByteVec out;
  for (std::uint64_t w = 0; out.size() < n; ++w) {
    append_le<std::uint64_t>(out, splitmix64((seed << 32) + w));
  }
  out.resize(n);
  return out;
}

ByteVec image_a() { return stream(1, 48 << 10); }

/// a.img with 4 KiB inserted at 20 KiB and 2 KiB appended.
ByteVec image_b() {
  const ByteVec a = image_a();
  ByteVec b(a.begin(), a.begin() + (20 << 10));
  append(b, stream(2, 4 << 10));
  b.insert(b.end(), a.begin() + (20 << 10), a.end());
  append(b, stream(3, 2 << 10));
  return b;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), {}};
}

std::uint32_t descriptor_version(const fs::path& root) {
  const auto payload =
      framing::unseal_object(as_bytes(read_file(root / "descriptor")));
  return payload ? load_le<std::uint32_t>(payload->data()) : 0;
}

/// `<namespace> <name> <SHA-1 of its bytes>` per object, as FileBackend
/// reads them: the repository's logical objects.
std::string object_lines(const fs::path& root) {
  const FileBackend backend(root);
  std::ostringstream out;
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    const Ns ns = static_cast<Ns>(i);
    for (const auto& name : backend.list(ns)) {
      const auto bytes = backend.get(ns, name);
      out << ns_name(ns) << " " << name << " "
          << Sha1::hash(bytes.value_or(ByteVec{})).hex() << "\n";
    }
  }
  return out.str();
}

/// Sorted, as `find | sort` lists the loose layout's files.
std::string sorted_lines(const std::string& text) {
  std::istringstream in(text);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const auto& l : lines) out += l + "\n";
  return out;
}

std::optional<ByteVec> restore(const fs::path& root, const std::string& name) {
  Repository repo = open_repository(root, no_flags(), OpenMode::kRead);
  auto reader = RestoreReader::open(repo.stack().top(), name);
  if (!reader) return std::nullopt;
  ByteVec out(1 << 20);
  const std::size_t n = reader->read(out);
  if (!reader->ok()) return std::nullopt;
  out.resize(n);
  return out;
}

bool check_clean(const fs::path& root) {
  Repository repo = open_repository(root, no_flags(), OpenMode::kRead);
  const FsckReport r =
      fsck_repository(repo.file(), false, {}, repo.config().framed);
  EXPECT_TRUE(r.clean()) << r.to_string();
  return r.clean();
}

class V1CompatTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mhd_v1_compat_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    root_ = dir_ / "repo";
    fs::copy(kData / "v1_repo", root_, fs::copy_options::recursive);
  }
  void TearDown() override { fs::remove_all(dir_); }

  bool any_pack() const {
    for (const auto& e : fs::recursive_directory_iterator(root_)) {
      if (e.path().extension() == ".pack") return true;
    }
    return false;
  }

  fs::path dir_;
  fs::path root_;
};

TEST_F(V1CompatTest, RestoresChecksStoresAndFoldsALooseRepository) {
  ASSERT_EQ(descriptor_version(root_), 1u);
  const std::string v1_descriptor = read_file(root_ / "descriptor");

  // Reading restores byte-exact, checks clean and writes nothing.
  EXPECT_EQ(restore(root_, "a.img"), image_a());
  EXPECT_TRUE(check_clean(root_));
  EXPECT_EQ(read_file(root_ / "descriptor"), v1_descriptor);
  EXPECT_FALSE(any_pack());

  // Store b.img as `dedup_cli store` does: the descriptor becomes version
  // 2, and the logical objects equal the loose layout's after both stores.
  {
    Repository repo = open_repository(root_, no_flags(), OpenMode::kCreate);
    ObjectStore store(repo.stack().top(), repo.stack().containers());
    MhdEngine engine(store, repo.config());
    const ByteVec b = image_b();
    MemorySource src(b);
    engine.add_file("b.img", src);
    engine.finish();
  }
  EXPECT_EQ(descriptor_version(root_), kDescriptorVersion);
  EXPECT_TRUE(any_pack());
  EXPECT_EQ(sorted_lines(object_lines(root_)),
            sorted_lines(read_file(kData / "v1_repo_then_b.objects")));

  // gc folds every packed namespace into one pack: no loose file is left.
  {
    Repository repo = open_repository(root_, no_flags(), OpenMode::kWrite);
    collect_garbage(repo.stack().top(), repo.stack().containers());
    repo.file().sweep_temps();
  }
  for (int i = 0; i < static_cast<int>(Ns::kCount); ++i) {
    const Ns ns = static_cast<Ns>(i);
    if (ns_layout(ns) != NsLayout::kPacked) continue;
    for (const auto& e : fs::directory_iterator(root_ / ns_name(ns))) {
      EXPECT_EQ(e.path().extension(), ".pack") << e.path();
    }
  }
  EXPECT_EQ(restore(root_, "a.img"), image_a());
  EXPECT_EQ(restore(root_, "b.img"), image_b());
  EXPECT_TRUE(check_clean(root_));
}

// A writing open records version 2 before any object lands in a pack, so
// a binary that knows only version 1 refuses the repository instead of
// reading its loose files alone.
TEST_F(V1CompatTest, AWritingOpenRecordsVersionTwoFirst) {
  for (const OpenMode mode : {OpenMode::kWrite, OpenMode::kCreate}) {
    fs::remove_all(root_);
    fs::copy(kData / "v1_repo", root_, fs::copy_options::recursive);
    Repository repo = open_repository(root_, no_flags(), mode);
    repo.file();
    EXPECT_EQ(descriptor_version(root_), kDescriptorVersion);
    EXPECT_FALSE(any_pack());
    EXPECT_TRUE(repo.config().framed);
    EXPECT_EQ(repo.config().ecs, 1024u);
    EXPECT_EQ(repo.config().sd, 8u);
  }
}

}  // namespace
}  // namespace mhd
