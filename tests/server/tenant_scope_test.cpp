// Tenant scopes through offline maintenance. The daemon prefixes every
// object of a tenant with `<tenant>.`, and the names inside objects are
// bare, so collect_garbage() and fsck_repository() must join names one
// scope at a time. Each test runs a real daemon over an on-disk repository
// through the stack `dedup_cli serve` builds, then runs the offline code
// paths `dedup_cli gc` and `fsck_cli check` run on the same directory.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "mhd/repo/repository.h"
#include "mhd/server/client.h"
#include "mhd/server/daemon.h"
#include "mhd/store/framing.h"
#include "mhd/store/maintenance.h"
#include "mhd/store/scrub.h"

namespace mhd::server {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir()
      : dir_(fs::temp_directory_path() /
             ("mhd_scope_" + std::to_string(::getpid()) + "_" +
              std::to_string(counter_++))) {
    fs::remove_all(dir_);
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

/// Deterministic incompressible bytes (xorshift64*), one stream per seed.
ByteVec random_blob(std::uint64_t seed, std::size_t n) {
  ByteVec v(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 1;
  for (auto& b : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<Byte>(x >> 32);
  }
  return v;
}

/// The layout the guard needs: framed, 1 MiB containers, disk index.
EngineConfig framed_containers() {
  EngineConfig cfg;
  cfg.framed = true;
  cfg.container_bytes = 1u << 20;
  cfg.index_impl = IndexImpl::kDisk;
  return cfg;
}

/// A daemon serving the repository at `root` over its backend stack.
class Served {
 public:
  Served(const fs::path& root, const EngineConfig& cfg)
      : file_(root), stack_(file_, cfg), daemon_(stack_.top(), file_, [&] {
          DaemonConfig dc;
          dc.listen = "tcp:0";
          dc.engine = cfg;
          return dc;
        }()) {
    daemon_.start();
  }

  DedupClient client() const {
    auto c = DedupClient::connect(daemon_.listen_spec());
    if (!c) throw std::runtime_error("cannot connect to the daemon");
    return std::move(*c);
  }

 private:
  FileBackend file_;
  BackendStack stack_;
  DedupDaemon daemon_;
};

const std::map<std::string, std::pair<std::string, ByteVec>>& tenant_files() {
  static const std::map<std::string, std::pair<std::string, ByteVec>> files =
      {{"t1", {"a.img", random_blob(1, 1'500'000)}},
       {"t2", {"b.img", random_blob(2, 1'000'000)}}};
  return files;
}

/// Both tenants PUT their file through a daemon, which is then stopped.
void put_both(const fs::path& root, const EngineConfig& cfg) {
  Served served(root, cfg);
  DedupClient client = served.client();
  for (const auto& [tenant, file] : tenant_files()) {
    const auto r = client.put_bytes(tenant, file.first, file.second);
    ASSERT_TRUE(r.ok) << tenant << ": " << r.message;
  }
}

ByteVec get(DedupClient& client, const std::string& tenant,
            const std::string& name) {
  ByteVec out;
  const auto r =
      client.get(tenant, name, [&](ByteSpan piece) { append(out, piece); });
  EXPECT_TRUE(r.ok && r.stream_ok) << tenant << "/" << name << ": "
                                   << r.message;
  return out;
}

/// Ids of the containers that only `tenant`'s chunk maps reference.
std::set<std::uint64_t> containers_only_of(StorageBackend& raw,
                                           const std::string& tenant) {
  std::map<std::uint64_t, std::set<std::string>> users;
  for (const auto& name : raw.list(Ns::kChunkMap)) {
    const auto payload =
        framing::unseal_object(raw.get(Ns::kChunkMap, name).value());
    const auto extents = ContainerBackend::parse_extents(payload.value());
    for (const auto& e : extents.value()) {
      users[e.container].insert(name.substr(0, name.find('.')));
    }
  }
  std::set<std::uint64_t> only;
  for (const auto& [id, tenants] : users) {
    if (tenants == std::set<std::string>{tenant}) only.insert(id);
  }
  return only;
}

TEST(TenantScopeGc, OfflineGcReclaimsOnlyTheDeletedTenantFile) {
  TempDir dir;
  const EngineConfig cfg = framed_containers();
  put_both(dir.path(), cfg);
  {
    FileBackend raw(dir.path());
    const auto before = fsck_repository(raw, /*repair=*/false);
    ASSERT_TRUE(before.issues.empty()) << before.to_string();
    ASSERT_FALSE(raw.list(Ns::kIndex).empty());
  }

  std::set<std::uint64_t> dead;
  GcReport gc;
  {
    // t1 forgets its file; then what `dedup_cli gc` runs.
    FileBackend file(dir.path());
    dead = containers_only_of(file, "t1");
    ASSERT_FALSE(dead.empty());
    BackendStack stack(file, cfg);
    TenantView view(stack.top(), "t1");
    ASSERT_TRUE(delete_file(view, "a.img"));
    gc = collect_garbage(stack.top(), stack.containers());
  }
  const auto& a = tenant_files().at("t1").second;
  EXPECT_EQ(gc.deleted_chunks, 1u);
  EXPECT_EQ(gc.reclaimed_bytes, a.size());
  EXPECT_EQ(gc.deleted_containers, dead.size());

  FileBackend raw(dir.path());
  // Both tenants' disk-tier objects (their warm lists) went with the gc:
  // their next sessions start cold.
  EXPECT_TRUE(raw.list(Ns::kIndex).empty());
  for (const std::uint64_t id : dead) {
    EXPECT_FALSE(
        raw.exists(Ns::kContainer, ContainerBackend::container_name(id)));
  }
  const auto after = fsck_repository(raw, /*repair=*/false);
  EXPECT_TRUE(after.issues.empty()) << after.to_string();

  // A restarted daemon still serves the other tenant's file.
  Served served(dir.path(), cfg);
  DedupClient client = served.client();
  EXPECT_EQ(get(client, "t2", "b.img"), tenant_files().at("t2").second);
  EXPECT_FALSE(client.get("t1", "a.img", [](ByteSpan) {}).ok);
}

TEST(TenantScopeGc, HealthyUnframedDaemonRepositoryIsCleanAndKept) {
  TempDir dir;
  const EngineConfig cfg;  // `dedup_cli serve` with no layout flags
  put_both(dir.path(), cfg);
  {
    FileBackend raw(dir.path());
    const auto report =
        fsck_repository(raw, /*repair=*/false, {}, /*framed=*/false);
    EXPECT_TRUE(report.issues.empty()) << report.to_string();
    EXPECT_EQ(report.clean_objects, report.objects);

    BackendStack stack(raw, cfg);
    const auto gc = collect_garbage(stack.top(), stack.containers());
    EXPECT_EQ(gc.deleted_chunks, 0u);
    EXPECT_EQ(gc.deleted_manifests, 0u);
    EXPECT_EQ(gc.deleted_hooks, 0u);
    EXPECT_EQ(gc.live_chunks, tenant_files().size());
  }
  Served served(dir.path(), cfg);
  DedupClient client = served.client();
  for (const auto& [tenant, file] : tenant_files()) {
    EXPECT_EQ(get(client, tenant, file.first), file.second) << tenant;
  }
}

TEST(TenantScopeGc, OnlineFsckWithAnOpenContainerIsClean) {
  TempDir dir;
  Served served(dir.path(), framed_containers());
  DedupClient client = served.client();
  for (const auto& [tenant, file] : tenant_files()) {
    ASSERT_TRUE(client.put_bytes(tenant, file.first, file.second).ok);
  }
  // The last container is still open: its bytes are not yet a sealed
  // stream on disk, and the check must read it through the live stack.
  const auto fsck = client.maintain(MaintainOp::kFsck);
  ASSERT_TRUE(fsck.ok) << fsck.message;
  EXPECT_NE(fsck.message.find("\"clean\":true"), std::string::npos)
      << fsck.message;
  EXPECT_NE(fsck.message.find("\"tenants\":2"), std::string::npos)
      << fsck.message;
}

}  // namespace
}  // namespace mhd::server
