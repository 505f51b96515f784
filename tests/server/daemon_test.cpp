// DedupDaemon end-to-end: N parallel disjoint-tenant ingests bit-identical
// to serial runs, concurrent restore storms, admission control (Busy +
// retry-after), per-tenant quotas, online maintenance between sessions,
// tenant validation at the server boundary, and stats observability.
//
// Every test drives a real daemon over a loopback socket (tcp:0) through
// DedupClient — the same path the CLI subcommands use.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../store/counting_backend.h"
#include "mhd/chunk/byte_source.h"
#include "mhd/core/mhd_engine.h"
#include "mhd/server/client.h"
#include "mhd/server/daemon.h"
#include "mhd/server/tenant_view.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/maintenance.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/object_store.h"

namespace mhd::server {
namespace {

/// Deterministic pseudo-random blob (xorshift64*), seeded per tenant.
ByteVec make_blob(std::uint64_t seed, std::size_t n) {
  ByteVec v(n);
  std::uint64_t x = seed * 0x9E3779B97F4A7C15ull + 0x2545F4914F6CDD1Dull;
  for (auto& b : v) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<Byte>(x >> 32);
  }
  return v;
}

/// The two files one tenant ingests: disk1 shares its first half with
/// disk0, so the second PUT exercises the dedup path (hooks + manifests
/// written by the first).
std::vector<std::pair<std::string, ByteVec>> tenant_files(std::uint64_t t) {
  const ByteVec base = make_blob(t + 1, 96 << 10);
  ByteVec second(base.begin(), base.begin() + (48 << 10));
  const ByteVec fresh = make_blob(t + 101, 48 << 10);
  second.insert(second.end(), fresh.begin(), fresh.end());
  return {{"disk0.img", base}, {"disk1.img", std::move(second)}};
}

/// One daemon PUT replayed serially: fresh per-PUT engine over a
/// per-tenant view, torn down with finish(). The warm-session daemon must
/// be bit-indistinguishable from this on every stored object.
void serial_put(StorageBackend& repo, const std::string& tenant,
                const std::string& name, const ByteVec& data,
                const EngineConfig& cfg) {
  TenantView view(repo, tenant);
  ObjectStore store(view);
  MhdEngine engine(store, cfg);
  MemorySource src(ByteSpan{data});
  engine.add_file(name, src);
  engine.end_snapshot();
  engine.finish();
}

/// What the daemon does per PUT, replayed serially: per-tenant view,
/// per-PUT engine. Bit-level reference for the parallel runs.
void serial_ingest(StorageBackend& repo, const std::string& tenant,
                   const EngineConfig& cfg) {
  for (const auto& [name, data] : tenant_files(std::stoull(tenant.substr(1)))) {
    serial_put(repo, tenant, name, data, cfg);
  }
}

void expect_backends_identical(StorageBackend& a, StorageBackend& b) {
  for (int n = 0; n < static_cast<int>(Ns::kCount); ++n) {
    const Ns ns = static_cast<Ns>(n);
    auto la = a.list(ns), lb = b.list(ns);
    std::sort(la.begin(), la.end());
    std::sort(lb.begin(), lb.end());
    ASSERT_EQ(la, lb) << "namespace " << n;
    for (const auto& name : la) {
      ASSERT_EQ(a.get(ns, name), b.get(ns, name))
          << "namespace " << n << " object " << name;
    }
  }
}

ByteVec client_get(const std::string& spec, const std::string& tenant,
                   const std::string& name) {
  // Session slots release asynchronously after a peer closes, so a fresh
  // connection can race into Busy — honour the protocol's back-off-and-
  // retry contract instead of asserting on scheduler timing.
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto client = DedupClient::connect(spec);
    EXPECT_TRUE(client);
    if (!client) break;
    ByteVec out;
    const auto r = client->get(tenant, name,
                               [&](ByteSpan chunk) { append(out, chunk); });
    if (r.busy) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    EXPECT_TRUE(r.ok) << r.message;
    EXPECT_TRUE(r.stream_ok);
    EXPECT_EQ(r.produced, out.size());
    return out;
  }
  ADD_FAILURE() << "get " << tenant << "/" << name << " never admitted";
  return {};
}

TEST(DaemonTest, EightParallelTenantsBitIdenticalToSerial) {
  constexpr int kTenants = 8;
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.max_sessions = kTenants;

  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();
  const std::string spec = daemon.listen_spec();

  std::vector<std::thread> sessions;
  std::atomic<int> failures{0};
  for (int t = 0; t < kTenants; ++t) {
    sessions.emplace_back([&, t] {
      auto client = DedupClient::connect(spec);
      if (!client) {
        ++failures;
        return;
      }
      for (const auto& [name, data] : tenant_files(t)) {
        const auto r = client->put_bytes("t" + std::to_string(t), name,
                                         ByteSpan{data});
        if (!r.ok) ++failures;
      }
    });
  }
  for (auto& s : sessions) s.join();
  ASSERT_EQ(failures.load(), 0);

  // Every tenant restores byte-exactly through the live daemon.
  for (int t = 0; t < kTenants; ++t) {
    for (const auto& [name, data] : tenant_files(t)) {
      EXPECT_EQ(client_get(spec, "t" + std::to_string(t), name), data)
          << "tenant " << t << " file " << name;
    }
  }

  const std::string stats = daemon.stats_json();
  EXPECT_NE(stats.find("\"t0\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"t7\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"puts\":2"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"dup_bytes\""), std::string::npos) << stats;
  daemon.stop();  // joins every session thread; counters are final now
  EXPECT_GE(daemon.sessions_served(), static_cast<std::uint64_t>(kTenants));

  // Serial reference: same per-PUT engine construction, one tenant after
  // another on a fresh repository. Disjoint namespaces make "parallel ==
  // serial" a bit-level equality over every stored object.
  MemoryBackend reference;
  for (int t = 0; t < kTenants; ++t) {
    serial_ingest(reference, "t" + std::to_string(t), dc.engine);
  }
  expect_backends_identical(repo, reference);
}

TEST(DaemonTest, DiskIndexTenantsBitIdenticalToSerial) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.max_sessions = 4;
  // Per-tenant disk index tier.
  dc.engine.index_impl = IndexImpl::kDisk;

  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();
  const std::string spec = daemon.listen_spec();

  constexpr int kTenants = 2;
  std::vector<std::thread> sessions;
  std::atomic<int> failures{0};
  for (int t = 0; t < kTenants; ++t) {
    sessions.emplace_back([&, t] {
      auto client = DedupClient::connect(spec);
      if (!client) {
        ++failures;
        return;
      }
      for (const auto& [name, data] : tenant_files(t)) {
        if (!client->put_bytes("t" + std::to_string(t), name, ByteSpan{data})
                 .ok) {
          ++failures;
        }
      }
    });
  }
  for (auto& s : sessions) s.join();
  ASSERT_EQ(failures.load(), 0);
  daemon.stop();

  MemoryBackend reference;
  for (int t = 0; t < kTenants; ++t) {
    serial_ingest(reference, "t" + std::to_string(t), dc.engine);
  }
  // Includes Ns::kIndex: per-tenant meta/shard/journal objects match too.
  expect_backends_identical(repo, reference);
}

/// PUT over a fresh connection with the protocol's back-off-and-retry on
/// Busy (session slots release asynchronously after a peer closes).
bool client_put_retry(const std::string& spec, const std::string& tenant,
                      const std::string& name, const ByteVec& data) {
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto client = DedupClient::connect(spec);
    if (!client) return false;
    const auto r = client->put_bytes(tenant, name, ByteSpan{data});
    if (r.busy) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    return r.ok;
  }
  return false;
}

/// Maintain(gc) over a fresh connection, retrying Busy.
DedupClient::Result maintain_gc_retry(const std::string& spec) {
  DedupClient::Result r;
  for (int attempt = 0; attempt < 200; ++attempt) {
    auto client = DedupClient::connect(spec);
    if (!client) {
      r.message = "connect failed";
      return r;
    }
    r = client->maintain(MaintainOp::kGc);
    if (!r.busy) return r;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return r;
}

/// The serial reference for the interleaved tests: per tenant a fresh
/// engine for the first file, gc through the tenant view (what the
/// daemon's Maintain(gc) runs), then a fresh engine for the second file.
void serial_interleaved_reference(StorageBackend& reference, int tenants,
                                  const EngineConfig& cfg) {
  for (int t = 0; t < tenants; ++t) {
    const auto files = tenant_files(t);
    serial_put(reference, "t" + std::to_string(t), files[0].first,
               files[0].second, cfg);
  }
  for (int t = 0; t < tenants; ++t) {
    TenantView view(reference, "t" + std::to_string(t));
    collect_garbage(view);
  }
  for (int t = 0; t < tenants; ++t) {
    const auto files = tenant_files(t);
    serial_put(reference, "t" + std::to_string(t), files[1].first,
               files[1].second, cfg);
  }
}

/// Warm engine sessions across an interleaved PUT → maintain(gc) → PUT
/// schedule. The first round builds the per-tenant warm engines, the
/// maintenance gate drops them all (gc rewrites hooks/manifests/index
/// beneath them), and the second round rebuilds them from post-gc disk
/// state — all of which must be bit-identical to the fresh-engine serial
/// baseline running the same schedule.
TEST(DaemonTest, WarmSessionsInterleavedWithGcBitIdenticalToSerial) {
  constexpr int kTenants = 8;
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.max_sessions = kTenants + 1;  // +1: the maintenance client

  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();
  const std::string spec = daemon.listen_spec();

  // Persistent connections: the second round reuses them, so each
  // tenant's PUTs land on one session thread with no re-admission races.
  std::vector<DedupClient> clients;
  clients.reserve(kTenants);
  for (int t = 0; t < kTenants; ++t) {
    auto c = DedupClient::connect(spec);
    ASSERT_TRUE(c);
    clients.push_back(std::move(*c));
  }

  std::atomic<int> failures{0};
  const auto put_round = [&](int file_idx) {
    std::vector<std::thread> workers;
    for (int t = 0; t < kTenants; ++t) {
      workers.emplace_back([&, t] {
        const auto files = tenant_files(t);
        const auto& [name, data] = files[file_idx];
        if (!clients[t].put_bytes("t" + std::to_string(t), name,
                                  ByteSpan{data})
                 .ok) {
          ++failures;
        }
      });
    }
    for (auto& w : workers) w.join();
  };

  put_round(0);
  ASSERT_EQ(failures.load(), 0);
  {
    const auto gc = maintain_gc_retry(spec);
    ASSERT_TRUE(gc.ok) << gc.message;
    // Everything is referenced; gc must delete nothing.
    EXPECT_NE(gc.message.find("\"deleted_chunks\":0"), std::string::npos)
        << gc.message;
  }
  put_round(1);
  ASSERT_EQ(failures.load(), 0);

  for (int t = 0; t < kTenants; ++t) {
    for (const auto& [name, data] : tenant_files(t)) {
      EXPECT_EQ(client_get(spec, "t" + std::to_string(t), name), data)
          << "tenant " << t << " file " << name;
    }
  }
  daemon.stop();

  MemoryBackend reference;
  serial_interleaved_reference(reference, kTenants, dc.engine);
  expect_backends_identical(repo, reference);
}

/// Same interleaved schedule on the persistent (disk) index, with a full
/// daemon restart between the gc and the second PUT round: the restarted
/// daemon's engines warm-load the on-disk index, append to it, and the
/// final repository — including every Ns::kIndex warm list — must match the serial fresh-engine baseline that never had a
/// warm engine or a restart.
TEST(DaemonTest, DiskIndexInterleavedGcAndRestartBitIdenticalToSerial) {
  constexpr int kTenants = 8;
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.max_sessions = kTenants + 1;
  dc.engine.index_impl = IndexImpl::kDisk;

  MemoryBackend repo;
  std::atomic<int> failures{0};
  const auto put_round = [&](const std::string& spec, int file_idx) {
    std::vector<std::thread> workers;
    for (int t = 0; t < kTenants; ++t) {
      workers.emplace_back([&, t] {
        const auto files = tenant_files(t);
        const auto& [name, data] = files[file_idx];
        if (!client_put_retry(spec, "t" + std::to_string(t), name, data)) {
          ++failures;
        }
      });
    }
    for (auto& w : workers) w.join();
  };

  {
    DedupDaemon daemon(repo, repo, dc);
    daemon.start();
    put_round(daemon.listen_spec(), 0);
    ASSERT_EQ(failures.load(), 0);
    const auto gc = maintain_gc_retry(daemon.listen_spec());
    ASSERT_TRUE(gc.ok) << gc.message;
    daemon.stop();
  }
  {
    // Restart over the same repository: nothing carries over but disk.
    DedupDaemon daemon(repo, repo, dc);
    daemon.start();
    put_round(daemon.listen_spec(), 1);
    ASSERT_EQ(failures.load(), 0);
    for (int t = 0; t < kTenants; ++t) {
      for (const auto& [name, data] : tenant_files(t)) {
        EXPECT_EQ(client_get(daemon.listen_spec(), "t" + std::to_string(t),
                             name),
                  data)
            << "tenant " << t << " file " << name;
      }
    }
    daemon.stop();
  }

  MemoryBackend reference;
  serial_interleaved_reference(reference, kTenants, dc.engine);
  expect_backends_identical(repo, reference);
}

TEST(DaemonTest, ConcurrentRestoreStormIsByteExact) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.max_sessions = 8;

  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();
  const std::string spec = daemon.listen_spec();

  const auto files = tenant_files(3);
  {
    auto client = DedupClient::connect(spec);
    ASSERT_TRUE(client);
    for (const auto& [name, data] : files) {
      ASSERT_TRUE(client->put_bytes("media", name, ByteSpan{data}).ok);
    }
  }

  constexpr int kReaders = 6;
  std::vector<std::thread> readers;
  std::atomic<int> mismatches{0};
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      // All readers hammer both files through the shared backend stack.
      for (const auto& [name, data] : files) {
        if (client_get(spec, "media", name) != data) ++mismatches;
      }
    });
  }
  for (auto& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);

  daemon.stop();  // joins sessions: every get's counter update is visible
  const std::string stats = daemon.stats_json();
  EXPECT_NE(stats.find("\"gets\":" + std::to_string(kReaders * 2)),
            std::string::npos)
      << stats;
}

TEST(DaemonTest, AdmissionControlAnswersBusyWithRetryAfter) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.max_sessions = 1;
  dc.retry_after_ms = 42;

  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();
  const std::string spec = daemon.listen_spec();

  // First connection occupies the single session slot (the ping round
  // trip guarantees the daemon has accepted it).
  auto holder = DedupClient::connect(spec);
  ASSERT_TRUE(holder);
  ASSERT_TRUE(holder->ping().ok);

  auto rejected = DedupClient::connect(spec);
  ASSERT_TRUE(rejected);  // TCP connects; admission happens at accept
  const auto r = rejected->ping();
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.busy);
  EXPECT_EQ(r.retry_after_ms, 42u);
  EXPECT_GE(daemon.busy_rejections(), 1u);

  // Releasing the slot lets a retrying client in (the documented
  // back-off-and-retry contract).
  holder.reset();
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    auto retry = DedupClient::connect(spec);
    ASSERT_TRUE(retry);
    if (retry->ping().ok) {
      admitted = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(admitted);
  daemon.stop();
}

TEST(DaemonTest, LogicalByteQuotaAbortsMidStream) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.quota.max_logical_bytes = 32 << 10;

  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();
  const std::string spec = daemon.listen_spec();

  const ByteVec big = make_blob(9, 128 << 10);
  {
    auto client = DedupClient::connect(spec);
    ASSERT_TRUE(client);
    const auto r = client->put_bytes("alice", "big.img", ByteSpan{big});
    EXPECT_FALSE(r.ok);
    EXPECT_TRUE(r.quota);
    EXPECT_NE(r.message.find("logical byte limit"), std::string::npos)
        << r.message;
  }
  // The aborted PUT charged nothing: a within-quota file still fits.
  const ByteVec small = make_blob(10, 16 << 10);
  {
    auto client = DedupClient::connect(spec);
    ASSERT_TRUE(client);
    EXPECT_TRUE(client->put_bytes("alice", "small.img", ByteSpan{small}).ok);
  }
  EXPECT_NE(daemon.stats_json().find("\"quota_rejections\":1"),
            std::string::npos)
      << daemon.stats_json();
  daemon.stop();
  // A refused PUT is the tenant's limit, not a protocol error.
  EXPECT_EQ(daemon.protocol_errors(), 0u);
}

TEST(DaemonTest, FileCountQuotaRejectsAtPutBegin) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.quota.max_files = 2;

  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();
  const std::string spec = daemon.listen_spec();

  const ByteVec data = make_blob(4, 8 << 10);
  auto client = DedupClient::connect(spec);
  ASSERT_TRUE(client);
  EXPECT_TRUE(client->put_bytes("bob", "a.img", ByteSpan{data}).ok);
  EXPECT_TRUE(client->put_bytes("bob", "b.img", ByteSpan{data}).ok);
  const auto r = client->put_bytes("bob", "c.img", ByteSpan{data});
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.quota);
  EXPECT_NE(r.message.find("file count limit"), std::string::npos)
      << r.message;
  daemon.stop();
  EXPECT_EQ(daemon.protocol_errors(), 0u);
}

TEST(DaemonTest, InvalidTenantIdsAreRejectedAtTheBoundary) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();
  const std::string spec = daemon.listen_spec();

  const ByteVec data = make_blob(5, 4 << 10);
  // A PUT with an invalid tenant is refused before any data lands (the
  // daemon also drops the connection — data frames would follow).
  for (const std::string bad : {"a/b", "a.b", "", "a\\b"}) {
    auto client = DedupClient::connect(spec);
    ASSERT_TRUE(client);
    const auto r = client->put_bytes(bad, "x.img", ByteSpan{data});
    EXPECT_FALSE(r.ok) << "tenant '" << bad << "'";
    EXPECT_FALSE(r.busy);
    EXPECT_FALSE(r.quota);
    EXPECT_FALSE(r.message.empty());
  }
  // Nothing reached the store under any name.
  for (int n = 0; n < static_cast<int>(Ns::kCount); ++n) {
    EXPECT_EQ(repo.object_count(static_cast<Ns>(n)), 0u);
  }

  // GETs and LSs validate too, without dropping the connection.
  auto client = DedupClient::connect(spec);
  ASSERT_TRUE(client);
  EXPECT_FALSE(client->get("..", "x.img", [](ByteSpan) {}).ok);
  EXPECT_FALSE(client->ls("a/b").ok);
  EXPECT_TRUE(client->ping().ok);  // connection still usable
  daemon.stop();
}

TEST(DaemonTest, OnlineMaintenanceBetweenSessions) {
  DaemonConfig dc;
  dc.listen = "tcp:0";

  // Framed repo: the integrity pass verifies real frames end to end.
  MemoryBackend raw;
  FramedBackend framed(raw);
  DedupDaemon daemon(framed, raw, dc);
  daemon.start();
  const std::string spec = daemon.listen_spec();

  const auto files = tenant_files(6);
  auto client = DedupClient::connect(spec);
  ASSERT_TRUE(client);
  ASSERT_TRUE(
      client->put_bytes("ops", files[0].first, ByteSpan{files[0].second}).ok);

  // gc against the live daemon: everything is referenced, nothing dies.
  const auto gc = client->maintain(MaintainOp::kGc);
  ASSERT_TRUE(gc.ok) << gc.message;
  EXPECT_NE(gc.message.find("\"deleted_chunks\":0"), std::string::npos)
      << gc.message;
  EXPECT_NE(gc.message.find("\"tenants\":1"), std::string::npos) << gc.message;

  const auto fsck = client->maintain(MaintainOp::kFsck);
  ASSERT_TRUE(fsck.ok) << fsck.message;
  EXPECT_NE(fsck.message.find("\"clean\":true"), std::string::npos)
      << fsck.message;

  // The daemon keeps serving after maintenance: new PUT, byte-exact GETs.
  ASSERT_TRUE(
      client->put_bytes("ops", files[1].first, ByteSpan{files[1].second}).ok);
  for (const auto& [name, data] : files) {
    EXPECT_EQ(client_get(spec, "ops", name), data) << name;
  }

  const auto ls = client->ls("ops");
  ASSERT_TRUE(ls.ok);
  EXPECT_NE(ls.message.find("disk0.img"), std::string::npos) << ls.message;
  EXPECT_NE(ls.message.find("disk1.img"), std::string::npos) << ls.message;
  daemon.stop();
}

// A GET of a file the same daemon just PUT: the DiskChunk's record table
// comes from its writer, so the GET reads each stored byte about once
// instead of the whole chunk first and then its ranges.
TEST(DaemonTest, GetRightAfterPutReadsEachStoredByteOnce) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  CountingBackend counting;
  FramedBackend framed(counting);
  DedupDaemon daemon(framed, counting, dc);
  daemon.start();
  const std::string spec = daemon.listen_spec();

  const ByteVec data = make_blob(12, 1 << 20);
  auto client = DedupClient::connect(spec);
  ASSERT_TRUE(client);
  ASSERT_TRUE(client->put_bytes("t0", "f.img", ByteSpan{data}).ok);
  client.reset();

  counting.reset_read_bytes();
  EXPECT_EQ(client_get(spec, "t0", "f.img"), data);
  EXPECT_LE(static_cast<double>(counting.read_bytes()), 1.2 * data.size());
  daemon.stop();
}

TEST(DaemonTest, StatsRpcReportsPerTenantCountersAndLatency) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();
  const std::string spec = daemon.listen_spec();

  const ByteVec data = make_blob(11, 64 << 10);
  auto client = DedupClient::connect(spec);
  ASSERT_TRUE(client);
  ASSERT_TRUE(client->put_bytes("alpha", "f.img", ByteSpan{data}).ok);
  ByteVec restored;
  ASSERT_TRUE(
      client->get("alpha", "f.img", [&](ByteSpan c) { append(restored, c); })
          .ok);
  EXPECT_EQ(restored, data);

  const auto stats = client->stats();
  ASSERT_TRUE(stats.ok);
  for (const char* key :
       {"\"alpha\"", "\"puts\":1", "\"gets\":1", "\"logical_bytes\":65536",
        "\"restore_bytes\":65536", "\"put_p50_us\"", "\"put_p99_us\"",
        "\"get_p50_us\"", "\"queue_high_water\"", "\"sessions_served\"",
        "\"busy_rejections\":0", "\"max_sessions\":8"}) {
    EXPECT_NE(stats.message.find(key), std::string::npos)
        << key << " missing in " << stats.message;
  }
  daemon.stop();
}

TEST(DaemonTest, StatsSeparateFailedGetsAndSupportResettingHistograms) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();

  const ByteVec data = make_blob(12, 32 << 10);
  auto client = DedupClient::connect(daemon.listen_spec());
  ASSERT_TRUE(client);
  ASSERT_TRUE(client->put_bytes("beta", "f.img", ByteSpan{data}).ok);
  ASSERT_TRUE(client->get("beta", "f.img", [](ByteSpan) {}).ok);
  // A missing file fails fast; it must land in the error histogram, not
  // drag the success percentiles down.
  EXPECT_FALSE(client->get("beta", "missing.img", [](ByteSpan) {}).ok);

  const auto before = client->stats(/*reset=*/true);  // snapshot-and-reset
  ASSERT_TRUE(before.ok);
  for (const char* key : {"\"gets\":1", "\"get_errors\":1", "\"puts\":1",
                          "\"get_err_p99_us\""}) {
    EXPECT_NE(before.message.find(key), std::string::npos)
        << key << " missing in " << before.message;
  }
  // Non-empty histograms quantize to >= 2 µs, so ":0" proves the reset.
  EXPECT_EQ(before.message.find("\"put_p50_us\":0"), std::string::npos)
      << before.message;

  const auto after = client->stats();
  ASSERT_TRUE(after.ok);
  for (const char* key :
       {"\"put_p50_us\":0", "\"put_p99_us\":0", "\"get_p50_us\":0",
        "\"get_err_p99_us\":0",
        // The reset clears latency histograms ONLY; counters are
        // monotonic for the daemon's lifetime.
        "\"gets\":1", "\"get_errors\":1", "\"puts\":1"}) {
    EXPECT_NE(after.message.find(key), std::string::npos)
        << key << " missing in " << after.message;
  }
  daemon.stop();
}

TEST(DaemonTest, StopWhileClientsConnectedShutsDownCleanly) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();
  auto idle = DedupClient::connect(daemon.listen_spec());
  ASSERT_TRUE(idle);
  ASSERT_TRUE(idle->ping().ok);
  daemon.stop();  // must unblock the idle session's read and join it
  EXPECT_EQ(daemon.active_sessions(), 0u);
  daemon.stop();  // idempotent
}

// Engines on tenant views cannot locate containers, so a rewrite mode
// would admit every duplicate unseen: the daemon refuses it outright.
TEST(DaemonTest, RewriteModesAreRefused) {
  MemoryBackend repo;
  for (const RewriteMode mode : {RewriteMode::kCbr, RewriteMode::kHar}) {
    DaemonConfig dc;
    dc.engine.rewrite = mode;
    EXPECT_THROW({ DedupDaemon daemon(repo, repo, dc); },
                 std::invalid_argument)
        << rewrite_mode_name(mode);
  }
}

}  // namespace
}  // namespace mhd::server
