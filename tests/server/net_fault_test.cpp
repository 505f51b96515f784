// Network chaos + client resilience: the NetFaultPlan grammar, the
// FaultConn proxy's scripted faults (torn frame, garbage header, reset,
// stall/slowloris, short writes), the daemon's typed failure counters
// (protocol_errors / peer_disconnects / idle_timeout_reaps), the
// retryable-error path (TransientReadError → Retry response instead of
// connection death), and DedupClient's RetryPolicy riding through all of
// it with zero data loss.
//
// Every scenario keys off deterministic frame/op counters — no sleeps as
// synchronization, no timing-dependent assertions beyond the idle-timeout
// reap the slowloris test exists to exercise.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mhd/core/mhd_engine.h"
#include "mhd/server/client.h"
#include "mhd/server/daemon.h"
#include "mhd/server/fault_conn.h"
#include "mhd/server/tenant_view.h"
#include "mhd/store/fault_backend.h"
#include "mhd/store/memory_backend.h"
#include "mhd/store/object_store.h"

namespace mhd::server {
namespace {

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

/// Direct (daemon-less) ingest into the repo — pre-populates tenant state
/// below any fault layer so a scripted read-fault window hits exactly the
/// daemon traffic the test sends, not the setup.
void serial_put(StorageBackend& repo, const std::string& tenant,
                const std::string& name, const ByteVec& data) {
  TenantView view(repo, tenant);
  ObjectStore store(view);
  MhdEngine engine(store, EngineConfig{});
  MemorySource src(ByteSpan{data});
  engine.add_file(name, src);
  engine.end_snapshot();
  engine.finish();
}

RetryPolicy test_policy(std::uint32_t retries = 8) {
  RetryPolicy p;
  p.max_retries = retries;
  p.base_backoff_ms = 2;
  p.max_backoff_ms = 50;
  p.seed = 7;
  return p;
}

ByteVec get_with_retry(const std::string& spec, const std::string& tenant,
                       const std::string& name, DedupClient::GetResult* out
                       = nullptr) {
  auto client = DedupClient::connect(spec);
  EXPECT_TRUE(client);
  if (!client) return {};
  client->set_retry_policy(test_policy(50));
  ByteVec bytes;
  const auto r =
      client->get(tenant, name, [&](ByteSpan c) { append(bytes, c); });
  EXPECT_TRUE(r.ok) << r.message;
  if (out) *out = r;
  return bytes;
}

TEST(NetFaultPlanTest, ParsesTheWholeGrammar) {
  const auto plan = NetFaultPlan::parse(
      "torn@3:0.25,stall@2:150,reset@7,garbage@1,short@4,torn@9,"
      "conn@2x3,conn@9,seed:99");
  ASSERT_EQ(plan.atoms.size(), 6u);
  EXPECT_EQ(plan.atoms[0].kind, NetFaultPlan::Kind::kTorn);
  EXPECT_EQ(plan.atoms[0].frame, 3u);
  EXPECT_DOUBLE_EQ(plan.atoms[0].fraction, 0.25);
  EXPECT_EQ(plan.atoms[1].kind, NetFaultPlan::Kind::kStall);
  EXPECT_EQ(plan.atoms[1].stall_ms, 150u);
  EXPECT_EQ(plan.atoms[2].kind, NetFaultPlan::Kind::kReset);
  EXPECT_EQ(plan.atoms[3].kind, NetFaultPlan::Kind::kGarbage);
  EXPECT_EQ(plan.atoms[4].kind, NetFaultPlan::Kind::kShort);
  EXPECT_LT(plan.atoms[5].fraction, 0.0);  // torn@9 draws from the seed
  EXPECT_EQ(plan.seed, 99u);

  // conn@2x3 covers 2..4, conn@9 covers 9; everything else is clean.
  EXPECT_FALSE(plan.applies_to_conn(1));
  EXPECT_TRUE(plan.applies_to_conn(2));
  EXPECT_TRUE(plan.applies_to_conn(4));
  EXPECT_FALSE(plan.applies_to_conn(5));
  EXPECT_TRUE(plan.applies_to_conn(9));

  // No conn atom = every connection.
  EXPECT_TRUE(NetFaultPlan::parse("reset@1").applies_to_conn(12345));
  EXPECT_TRUE(NetFaultPlan::parse("").empty());
}

TEST(NetFaultPlanTest, RejectsMalformedAtoms) {
  EXPECT_THROW(NetFaultPlan::parse("bogus@1"), std::invalid_argument);
  EXPECT_THROW(NetFaultPlan::parse("torn"), std::invalid_argument);
  EXPECT_THROW(NetFaultPlan::parse("torn@0"), std::invalid_argument);
  EXPECT_THROW(NetFaultPlan::parse("torn@2:1.5"), std::invalid_argument);
  EXPECT_THROW(NetFaultPlan::parse("reset@2:9"), std::invalid_argument);
  EXPECT_THROW(NetFaultPlan::parse("conn@0"), std::invalid_argument);
  EXPECT_THROW(NetFaultPlan::parse("seed:x"), std::invalid_argument);
}

// A PUT torn mid-PutData on the first connection: the daemon must record
// a peer disconnect (not a protocol error — the peer was benign), drop
// the half stream without committing anything, and the retrying client's
// second connection (clean) must land the file byte-exactly.
TEST(NetFaultTest, TornPutRetriesToZeroDataLoss) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  // put_bytes streams PutBegin(1), one 96 KB PutData(2), PutEnd(3).
  dc.net_fault_plan = "torn@2:0.5,conn@1";
  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();

  const ByteVec data = make_blob(1, 96 << 10);
  auto client = DedupClient::connect(daemon.listen_spec());
  ASSERT_TRUE(client);
  client->set_retry_policy(test_policy());
  const auto r = client->put_bytes("t0", "disk0.img", ByteSpan{data});
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_GE(client->retries(), 1u);

  EXPECT_EQ(get_with_retry(daemon.listen_spec(), "t0", "disk0.img"), data);
  // The torn connection's session thread counts its disconnect after it
  // releases the tenant, so the retried PUT can finish first; stop() joins
  // every session thread before the counters are read.
  daemon.stop();
  EXPECT_GE(daemon.peer_disconnects(), 1u);
  EXPECT_EQ(daemon.protocol_errors(), 0u);
  const std::string stats = daemon.stats_json();
  EXPECT_NE(stats.find("\"peer_disconnects\":"), std::string::npos);
}

// A garbage frame header is a hostile/corrupted peer: typed and counted
// as a protocol error, never a crash, and the connection dies so the
// poisoned stream cannot be misparsed. The retrying client recovers on a
// fresh connection.
TEST(NetFaultTest, GarbageHeaderCountsProtocolErrorAndClientRecovers) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.net_fault_plan = "garbage@1,conn@1";
  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();

  auto client = DedupClient::connect(daemon.listen_spec());
  ASSERT_TRUE(client);
  client->set_retry_policy(test_policy());
  const auto r = client->ping();
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_GE(client->retries(), 1u);
  EXPECT_GE(daemon.protocol_errors(), 1u);
  EXPECT_EQ(daemon.peer_disconnects(), 0u);
  daemon.stop();
}

// A reset between requests looks like a client that simply went away at a
// frame boundary — the daemon must treat it as a clean close (no failure
// counters), while the client's next request on the dead connection
// surfaces as a transport error and retries through.
TEST(NetFaultTest, ResetBetweenRequestsIsBenignForTheDaemon) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.net_fault_plan = "reset@2,conn@1";
  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();

  auto client = DedupClient::connect(daemon.listen_spec());
  ASSERT_TRUE(client);
  client->set_retry_policy(test_policy());
  ASSERT_TRUE(client->ping().ok);   // frame 1 passes clean
  const auto r = client->ping();    // frame 2 never arrives
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_GE(client->retries(), 1u);
  EXPECT_EQ(daemon.protocol_errors(), 0u);
  daemon.stop();
}

// Short writes (one byte per send) must be semantically invisible — the
// FrameReader's buffered reads reassemble the dribble.
TEST(NetFaultTest, ShortWritesAreSemanticallyInvisible) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.net_fault_plan = "short@1,short@2,short@3";
  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();

  const ByteVec data = make_blob(2, 16 << 10);
  auto client = DedupClient::connect(daemon.listen_spec());
  ASSERT_TRUE(client);
  const auto r = client->put_bytes("t0", "disk0.img", ByteSpan{data});
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_EQ(client->retries(), 0u);
  EXPECT_EQ(daemon.protocol_errors(), 0u);
  EXPECT_EQ(get_with_retry(daemon.listen_spec(), "t0", "disk0.img"), data);
  daemon.stop();
}

// Slowloris: a connection that stalls mid-frame is reaped by the receive
// timeout, the reap is counted (globally and for the tenant whose PUT
// was in flight), the admission slot frees up (max_sessions = 1 — the
// retrying client itself could not reconnect otherwise), and the tenant
// stays writable afterwards.
TEST(NetFaultTest, SlowlorisReapedByIdleTimeoutFreesItsSlot) {
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.max_sessions = 1;
  dc.idle_timeout_ms = 200;
  dc.net_fault_plan = "stall@2,conn@1";  // hold frame 2 forever
  MemoryBackend repo;
  DedupDaemon daemon(repo, repo, dc);
  daemon.start();

  const ByteVec data = make_blob(3, 64 << 10);
  auto client = DedupClient::connect(daemon.listen_spec());
  ASSERT_TRUE(client);
  client->set_retry_policy(test_policy(30));
  const auto r = client->put_bytes("t0", "disk0.img", ByteSpan{data});
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_GE(client->retries(), 1u);
  EXPECT_EQ(daemon.idle_timeout_reaps(), 1u);

  // Tenant still writable on a fresh, unfaulted connection.
  auto second = DedupClient::connect(daemon.listen_spec());
  ASSERT_TRUE(second);
  second->set_retry_policy(test_policy(30));
  const ByteVec more = make_blob(4, 32 << 10);
  ASSERT_TRUE(second->put_bytes("t0", "disk1.img", ByteSpan{more}).ok);

  EXPECT_EQ(get_with_retry(daemon.listen_spec(), "t0", "disk0.img"), data);
  EXPECT_EQ(get_with_retry(daemon.listen_spec(), "t0", "disk1.img"), more);

  const std::string stats = daemon.stats_json();
  EXPECT_NE(stats.find("\"idle_timeout_reaps\":1"), std::string::npos);
  daemon.stop();
}

// Store-side transient faults below the daemon. ObjectStore/RestoreReader
// retry a failing read 4 times, so a readerr window of 8 exhausts exactly
// two requests: each must come back as a Retry response (session dropped,
// connection alive), and the third client attempt — reads past the
// window — must succeed. Zero data loss, nonzero typed counters.
TEST(NetFaultTest, TransientStoreExhaustionAnswersRetryOnGet) {
  MemoryBackend repo;
  serial_put(repo, "t0", "disk0.img", make_blob(5, 96 << 10));

  FaultInjectingBackend faulty(repo, FaultPlan::parse("readerr@1x8"));
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.retry_after_ms = 5;
  DedupDaemon daemon(faulty, repo, dc);
  daemon.start();

  auto client = DedupClient::connect(daemon.listen_spec());
  ASSERT_TRUE(client);
  client->set_retry_policy(test_policy());
  ByteVec restored;
  const auto r = client->get("t0", "disk0.img",
                             [&](ByteSpan c) { append(restored, c); });
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_EQ(restored, make_blob(5, 96 << 10));
  EXPECT_EQ(client->retries(), 2u);
  EXPECT_EQ(daemon.retryable_errors(), 2u);

  const std::string stats = daemon.stats_json();
  EXPECT_NE(stats.find("\"retryable_errors\":2"), std::string::npos);
  daemon.stop();
}

// Same exhaustion during a PUT (the engine's dedup lookups read hooks and
// manifests of the pre-populated tenant): the daemon drains the rest of
// the stream, answers Retry, rebuilds the tenant session, and the re-sent
// PUT commits. The file must restore byte-exactly afterwards.
TEST(NetFaultTest, TransientStoreExhaustionAnswersRetryOnPut) {
  MemoryBackend repo;
  const ByteVec base = make_blob(6, 96 << 10);
  serial_put(repo, "t0", "disk0.img", base);

  // disk1 shares its first half with disk0 so ingest walks the dedup
  // read path (hook hits → manifest loads) against the faulty store.
  ByteVec second(base.begin(), base.begin() + (48 << 10));
  const ByteVec fresh = make_blob(7, 48 << 10);
  second.insert(second.end(), fresh.begin(), fresh.end());

  FaultInjectingBackend faulty(repo, FaultPlan::parse("readerr@1x8"));
  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.retry_after_ms = 5;
  DedupDaemon daemon(faulty, repo, dc);
  daemon.start();

  auto client = DedupClient::connect(daemon.listen_spec());
  ASSERT_TRUE(client);
  client->set_retry_policy(test_policy());
  const auto r = client->put_bytes("t0", "disk1.img", ByteSpan{second});
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_GE(client->retries(), 1u);
  EXPECT_GE(daemon.retryable_errors(), 1u);

  EXPECT_EQ(get_with_retry(daemon.listen_spec(), "t0", "disk1.img"),
            second);
  EXPECT_EQ(get_with_retry(daemon.listen_spec(), "t0", "disk0.img"), base);
  daemon.stop();
}

// Transient faults ABSORBED by the store's bounded retry (window smaller
// than the attempt budget) must not fail anything — but they must be
// visible: the flake surfaces in the transient_retries counters.
TEST(NetFaultTest, AbsorbedTransientRetriesAreCounted) {
  MemoryBackend repo;
  const ByteVec data = make_blob(8, 96 << 10);
  serial_put(repo, "t0", "disk0.img", data);

  // Read 1 is the manifest load; the window faults chunk reads 2..3,
  // which RestoreReader absorbs (and counts) inside the stream.
  FaultInjectingBackend faulty(repo, FaultPlan::parse("readerr@2x2"));
  DaemonConfig dc;
  dc.listen = "tcp:0";
  DedupDaemon daemon(faulty, repo, dc);
  daemon.start();

  auto client = DedupClient::connect(daemon.listen_spec());
  ASSERT_TRUE(client);
  client->set_retry_policy(test_policy());
  ByteVec restored;
  const auto r = client->get("t0", "disk0.img",
                             [&](ByteSpan c) { append(restored, c); });
  ASSERT_TRUE(r.ok) << r.message;
  EXPECT_EQ(restored, data);
  EXPECT_EQ(daemon.retryable_errors(), 0u);

  // Stats over the SAME connection: strict request/response means the
  // GET's counter updates are ordered before this snapshot (a direct
  // daemon.stats_json() call could race the handler's bookkeeping).
  const auto stats = client->stats();
  ASSERT_TRUE(stats.ok);
  EXPECT_NE(stats.message.find("\"transient_retries\":2"),
            std::string::npos)
      << stats.message;
  daemon.stop();
}

}  // namespace
}  // namespace mhd::server
