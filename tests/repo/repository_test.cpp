// The repository descriptor and open_repository: the descriptor records
// the six creation-time values and refuses damage, a creation-time flag
// that differs from the repository throws before anything is written, a
// pre-descriptor layout is adopted from its markers and index objects,
// and the existing-repository modes create nothing.
#include "mhd/repo/repository.h"

#include <unistd.h>

#include <fstream>
#include <map>

#include <gtest/gtest.h>

#include "mhd/core/mhd_engine.h"
#include "mhd/store/framing.h"
#include "mhd/util/random.h"

namespace mhd {
namespace {

namespace fs = std::filesystem;

Flags make_flags(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (auto& s : args) argv.push_back(s.data());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

/// Every file under `root` with its bytes: a repository's whole state.
std::map<std::string, std::string> snapshot(const fs::path& root) {
  std::map<std::string, std::string> files;
  for (const auto& e : fs::recursive_directory_iterator(root)) {
    const std::string rel = fs::relative(e.path(), root).string();
    if (e.is_directory()) {
      files[rel + "/"] = "";
      continue;
    }
    std::ifstream in(e.path(), std::ios::binary);
    files[rel] = {std::istreambuf_iterator<char>(in), {}};
  }
  return files;
}

void write_file(const fs::path& p, const std::string& bytes) {
  std::ofstream(p, std::ios::binary | std::ios::trunc) << bytes;
}

class RepositoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("mhd_repo_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    root_ = dir_ / "repo";
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Creates the repository with `args` and stores 256 KiB into it.
  void create_and_store(const std::vector<std::string>& args) {
    Repository repo =
        open_repository(root_, make_flags(args), OpenMode::kCreate);
    ByteVec data(256 << 10);
    Xoshiro256 rng(7);
    for (auto& b : data) b = static_cast<Byte>(rng());
    ObjectStore store(repo.stack().top());
    MhdEngine engine(store, repo.config());
    MemorySource src(data);
    engine.add_file("f", src);
    engine.finish();
  }

  fs::path descriptor() const { return root_ / "descriptor"; }

  fs::path dir_;
  fs::path root_;
};

TEST_F(RepositoryTest, DescriptorRoundTripsTheSixValues) {
  create_and_store({"--framed", "--container-mb=1", "--index-impl=disk",
                    "--chunker=gear", "--ecs=8192", "--sd=32"});
  ASSERT_TRUE(fs::exists(descriptor()));
  const Repository repo =
      open_repository(root_, make_flags({}), OpenMode::kRead);
  EXPECT_TRUE(repo.config().framed);
  EXPECT_EQ(repo.config().container_bytes, 1ull << 20);
  EXPECT_EQ(repo.config().index_impl, IndexImpl::kDisk);
  EXPECT_EQ(repo.config().chunker, ChunkerKind::kGear);
  EXPECT_EQ(repo.config().ecs, 8192u);
  EXPECT_EQ(repo.config().sd, 32u);
}

TEST_F(RepositoryTest, DamagedTruncatedOrNewerDescriptorIsRefused) {
  create_and_store({"--framed"});
  std::ifstream in(descriptor(), std::ios::binary);
  const std::string good{std::istreambuf_iterator<char>(in), {}};

  std::string flipped = good;
  flipped[5] ^= 0x01;
  // Version 2, correctly sealed: only the version is wrong.
  ByteVec payload = *framing::unseal_object(as_bytes(good));
  payload[0] = 2;
  const ByteVec newer = framing::seal_object(payload);
  for (const std::string& bad :
       {flipped, good.substr(0, good.size() - 3),
        std::string(reinterpret_cast<const char*>(newer.data()),
                    newer.size())}) {
    write_file(descriptor(), bad);
    const auto before = snapshot(root_);
    for (const OpenMode mode :
         {OpenMode::kCreate, OpenMode::kWrite, OpenMode::kRead}) {
      EXPECT_THROW(open_repository(root_, make_flags({}), mode), StoreError);
    }
    EXPECT_EQ(snapshot(root_), before);
  }
}

TEST_F(RepositoryTest, EachCreationTimeFlagConflictThrowsAndWritesNothing) {
  create_and_store({"--framed", "--container-mb=1", "--index-impl=disk",
                    "--chunker=gear", "--ecs=8192", "--sd=32"});
  const auto before = snapshot(root_);
  for (const char* flag :
       {"--framed=false", "--container-mb=2", "--index-impl=sampled",
        "--chunker=rabin", "--ecs=4096", "--sd=64"}) {
    for (const OpenMode mode :
         {OpenMode::kCreate, OpenMode::kWrite, OpenMode::kRead}) {
      EXPECT_THROW(open_repository(root_, make_flags({flag}), mode), FlagError)
          << flag;
    }
    EXPECT_EQ(snapshot(root_), before) << flag;
  }
  // The error names the flag, the stored value and the given value.
  try {
    open_repository(root_, make_flags({"--ecs=4096"}), OpenMode::kRead);
    ADD_FAILURE() << "no conflict reported";
  } catch (const FlagError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--ecs"), std::string::npos) << what;
    EXPECT_NE(what.find("ecs=8192"), std::string::npos) << what;
    EXPECT_NE(what.find("ecs=4096"), std::string::npos) << what;
  }
  // The stored values themselves are no conflict.
  EXPECT_NO_THROW(open_repository(
      root_, make_flags({"--framed", "--ecs=8192"}), OpenMode::kRead));
}

TEST_F(RepositoryTest, BadFlagOnNewPathLeavesNoDescriptor) {
  for (const char* flag : {"--sd=0", "--ecs=-1", "--ecs=0", "--chunker=x"}) {
    EXPECT_THROW(open_repository(root_, make_flags({flag}), OpenMode::kCreate),
                 FlagError)
        << flag;
    EXPECT_FALSE(fs::exists(root_)) << flag;
  }
}

// A rewrite mode decides from container placement: without a container
// layer, given or recorded, it throws before anything is written.
TEST_F(RepositoryTest, RewriteWithoutContainersThrowsAndWritesNothing) {
  for (const char* mode : {"--rewrite=cbr", "--rewrite=har"}) {
    EXPECT_THROW(open_repository(root_, make_flags({mode}), OpenMode::kCreate),
                 FlagError)
        << mode;
    EXPECT_FALSE(fs::exists(root_)) << mode;
  }
  create_and_store({});
  const auto before = snapshot(root_);
  EXPECT_THROW(open_repository(root_, make_flags({"--rewrite=cbr"}),
                               OpenMode::kCreate),
               FlagError);
  EXPECT_EQ(snapshot(root_), before);

  // A repository with containers takes the mode without repeating the
  // flag that made them.
  fs::remove_all(root_);
  create_and_store({"--container-mb=1"});
  EXPECT_NO_THROW(open_repository(root_, make_flags({"--rewrite=cbr"}),
                                  OpenMode::kCreate));
}

TEST_F(RepositoryTest, AdoptsLegacyLayout) {
  {
    FileBackend legacy(root_);
    legacy.put(Ns::kIndex, "t1.meta", as_bytes(std::string("m")));
  }
  write_file(root_ / "framed", "");
  write_file(root_ / "container-size", "1048576\n");
  const auto before = snapshot(root_);

  // Read-only adoption: the layout from the markers, nothing written.
  {
    Repository repo =
        open_repository(root_, make_flags({"--ecs=2048"}), OpenMode::kRead);
    repo.file();
    EXPECT_TRUE(repo.config().framed);
    EXPECT_EQ(repo.config().container_bytes, 1ull << 20);
    EXPECT_EQ(repo.config().index_impl, IndexImpl::kDisk);
    EXPECT_EQ(repo.config().ecs, 2048u);
  }
  EXPECT_EQ(snapshot(root_), before);

  // A mutating command records the adopted layout once.
  {
    Repository repo = open_repository(root_, make_flags({"--ecs=2048"}),
                                      OpenMode::kWrite);
    repo.file();
  }
  ASSERT_TRUE(fs::exists(descriptor()));
  const Repository reopened =
      open_repository(root_, make_flags({}), OpenMode::kRead);
  EXPECT_TRUE(reopened.config().framed);
  EXPECT_EQ(reopened.config().container_bytes, 1ull << 20);
  EXPECT_EQ(reopened.config().index_impl, IndexImpl::kDisk);
  EXPECT_EQ(reopened.config().ecs, 2048u);
}

TEST_F(RepositoryTest, LegacySampledTierWithoutMarkers) {
  {
    FileBackend legacy(root_);
    legacy.put(Ns::kIndex, "sampled-meta", as_bytes(std::string("m")));
  }
  const Repository repo =
      open_repository(root_, make_flags({}), OpenMode::kRead);
  EXPECT_FALSE(repo.config().framed);
  EXPECT_EQ(repo.config().container_bytes, 0u);
  EXPECT_EQ(repo.config().index_impl, IndexImpl::kSampled);
}

TEST_F(RepositoryTest, ExistingModesOnMissingPathCreateNothing) {
  for (const OpenMode mode : {OpenMode::kWrite, OpenMode::kRead}) {
    EXPECT_THROW(open_repository(root_, make_flags({}), mode), FlagError);
    EXPECT_FALSE(fs::exists(root_));
  }
  // An empty directory holds no repository either.
  fs::create_directories(root_);
  EXPECT_THROW(open_repository(root_, make_flags({}), OpenMode::kRead),
               FlagError);
  EXPECT_TRUE(fs::is_empty(root_));
}

TEST_F(RepositoryTest, NothingIsWrittenUntilTheBackendIsUsed) {
  {
    Repository repo =
        open_repository(root_, make_flags({"--framed"}), OpenMode::kCreate);
    EXPECT_TRUE(repo.config().framed);
    EXPECT_FALSE(fs::exists(descriptor()));
  }
  // Only the lock's directory is left, so the next creation is free.
  EXPECT_TRUE(fs::is_empty(root_));
  create_and_store({});
  EXPECT_FALSE(
      open_repository(root_, make_flags({}), OpenMode::kRead).config().framed);
}

}  // namespace
}  // namespace mhd
