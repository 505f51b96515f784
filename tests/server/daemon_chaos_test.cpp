// Kill-9 crash harness — the daemon's durability story under the most
// hostile stop there is. Every scenario runs a REAL daemon process
// (forked child, loopback/unix socket) and SIGKILLs it at seeded points:
// mid-PUT with the stream torn between frames, and mid-gc during the
// recovery's own cleanup. Recovery is always the same drill a real
// operator would run — fsck --repair the surviving bytes, restart the
// daemon, garbage-collect the crash residue — and the bar is always the
// same two claims:
//
//   1. Committed files restore byte-exactly, and the uncommitted victim
//      of the crash is invisible (never half a file).
//   2. After recovery + re-ingest, the repository is BIT-IDENTICAL to an
//      uninterrupted baseline run — every namespace, index included (gc
//      deletes the disk tier's warm lists, which is what makes the
//      comparison exact rather than merely equivalent).
//
// TSan constraint: fork() from a multi-threaded process is undefined
// enough that TSan refuses it — so the PARENT (this test) never spawns a
// thread. Every daemon lives in a forked child; the parent drives it
// with the threadless DedupClient and runs fsck inline.
#include <gtest/gtest.h>

#include <csignal>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "mhd/server/client.h"
#include "mhd/server/daemon.h"
#include "mhd/store/file_backend.h"
#include "mhd/store/framed_backend.h"
#include "mhd/store/scrub.h"

namespace mhd::server {
namespace {

constexpr const char* kTenant = "t0";

/// Deterministic pseudo-random blob (xorshift64*).
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

/// The corpus: f1 shares its first half with f0 (the dedup path is live
/// when the crash lands), f2 is the crash victim.
ByteVec file_f0() { return make_blob(1, 96 << 10); }
ByteVec file_f1() {
  const ByteVec base = file_f0();
  ByteVec v(base.begin(), base.begin() + (48 << 10));
  const ByteVec fresh = make_blob(2, 48 << 10);
  v.insert(v.end(), fresh.begin(), fresh.end());
  return v;
}
ByteVec file_f2() { return make_blob(3, 64 << 10); }

// --- Forked daemon lifecycle ----------------------------------------------

volatile std::sig_atomic_t g_stop = 0;
void on_sigterm(int) { g_stop = 1; }

/// Child body: real FileBackend + framed layer + daemon, exactly the
/// cmd_serve stack. Reports the resolved listen spec through `port_pipe`,
/// then idles until SIGTERM (graceful stop) — or until the parent's
/// SIGKILL, which is the whole point.
[[noreturn]] void run_daemon_child(int port_pipe,
                                   const std::filesystem::path& dir,
                                   const std::string& listen,
                                   const EngineConfig& engine) {
  try {
    // Die with the test runner rather than leaking daemons on a crash.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    std::signal(SIGTERM, on_sigterm);
    if (listen.rfind("unix:", 0) == 0) {
      std::filesystem::remove(listen.substr(5));  // stale socket from a kill
    }
    FileBackend file(dir);
    FramedBackend framed(file);
    DaemonConfig dc;
    dc.listen = listen;
    dc.max_sessions = 4;
    dc.engine = engine;
    DedupDaemon daemon(framed, file, dc);
    daemon.start();
    const std::string spec = daemon.listen_spec() + "\n";
    if (::write(port_pipe, spec.data(), spec.size()) !=
        static_cast<ssize_t>(spec.size())) {
      ::_exit(2);
    }
    ::close(port_pipe);
    while (!g_stop) ::usleep(2'000);
    daemon.stop();
  } catch (...) {
    ::_exit(3);
  }
  ::_exit(0);
}

struct DaemonProc {
  pid_t pid = -1;
  std::string spec;  ///< resolved listen spec, empty if the child died
};

DaemonProc spawn_daemon(const std::filesystem::path& dir,
                        const EngineConfig& engine,
                        const std::string& listen = "tcp:0") {
  int fds[2];
  if (::pipe(fds) != 0) return {};
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return {};
  }
  if (pid == 0) {
    ::close(fds[0]);
    run_daemon_child(fds[1], dir, listen, engine);
  }
  ::close(fds[1]);
  DaemonProc d;
  d.pid = pid;
  char c;
  while (::read(fds[0], &c, 1) == 1 && c != '\n') d.spec.push_back(c);
  ::close(fds[0]);
  return d;
}

void graceful_stop(DaemonProc& d) {
  ASSERT_GT(d.pid, 0);
  ASSERT_EQ(::kill(d.pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(d.pid, &status, 0), d.pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "daemon child exit status " << status;
  d.pid = -1;
}

void kill_nine(DaemonProc& d) {
  ASSERT_GT(d.pid, 0);
  ASSERT_EQ(::kill(d.pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(d.pid, &status, 0), d.pid);
  EXPECT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  d.pid = -1;
}

// --- Parent-side request helpers (all threadless) -------------------------

RetryPolicy chaos_policy() {
  RetryPolicy p;
  p.max_retries = 40;
  p.base_backoff_ms = 2;
  p.max_backoff_ms = 30;
  p.seed = 9;
  return p;
}

void put_file(const std::string& spec, const std::string& name,
              const ByteVec& data) {
  auto client = DedupClient::connect(spec);
  ASSERT_TRUE(client) << "connect " << spec;
  client->set_retry_policy(chaos_policy());
  const auto r = client->put_bytes(kTenant, name, ByteSpan{data});
  ASSERT_TRUE(r.ok) << name << ": " << r.message;
}

void run_gc(const std::string& spec) {
  auto client = DedupClient::connect(spec);
  ASSERT_TRUE(client) << "connect " << spec;
  client->set_retry_policy(chaos_policy());
  const auto r = client->maintain(MaintainOp::kGc);
  ASSERT_TRUE(r.ok) << r.message;
}

void expect_restores_exactly(const std::string& spec, const std::string& name,
                             const ByteVec& expected) {
  auto client = DedupClient::connect(spec);
  ASSERT_TRUE(client) << "connect " << spec;
  client->set_retry_policy(chaos_policy());
  ByteVec out;
  const auto r =
      client->get(kTenant, name, [&](ByteSpan chunk) { append(out, chunk); });
  ASSERT_TRUE(r.ok) << name << ": " << r.message;
  EXPECT_TRUE(r.stream_ok);
  ASSERT_EQ(out.size(), expected.size()) << name;
  EXPECT_TRUE(std::equal(out.begin(), out.end(), expected.begin())) << name;
}

void expect_file_absent(const std::string& spec, const std::string& name) {
  auto client = DedupClient::connect(spec);
  ASSERT_TRUE(client) << "connect " << spec;
  client->set_retry_policy(chaos_policy());
  const auto r = client->get(kTenant, name, nullptr);
  EXPECT_FALSE(r.ok) << "uncommitted " << name
                     << " became visible after the crash";
  EXPECT_EQ(r.produced, 0u);
}

/// Hand-rolls the front of a PUT — PutBegin plus `frames` 16 KiB PutData
/// frames, NO PutEnd — so the daemon is mid-stream inside the engine when
/// the SIGKILL lands. Returns the open fd (the crash tears it down).
int start_partial_put(const std::string& spec, const std::string& name,
                      const ByteVec& data, int frames) {
  const int fd = connect_to(spec);
  EXPECT_GE(fd, 0) << "connect " << spec;
  if (fd < 0) return fd;
  ByteVec begin;
  append_string(begin, kTenant);
  append_string(begin, name);
  write_frame(fd, MsgType::kPutBegin, ByteSpan{begin});
  constexpr std::size_t kFrame = 16u << 10;
  std::size_t off = 0;
  for (int i = 0; i < frames && off < data.size(); ++i) {
    const std::size_t n = std::min(kFrame, data.size() - off);
    write_frame(fd, MsgType::kPutData, ByteSpan{data.data() + off, n});
    off += n;
  }
  return fd;
}

/// Operator recovery drill, step one: repair the raw bytes, then demand a
/// clean bill from a second, read-only pass.
void repair_and_expect_clean(const std::filesystem::path& dir) {
  FileBackend raw(dir);
  fsck_repository(raw, /*repair=*/true);
  const auto report = fsck_repository(raw, /*repair=*/false);
  EXPECT_TRUE(report.clean()) << report.to_string();
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

std::filesystem::path fresh_dir(const std::string& tag) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("chaos_" + tag);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- Scenarios ------------------------------------------------------------

/// Engine variants: the in-memory index (crash state = store objects
/// only) and the disk index tier, whose warm list is rewritten at every
/// PUT's session flush.
class DaemonChaosTest : public ::testing::TestWithParam<std::string> {
 protected:
  EngineConfig engine() const {
    EngineConfig cfg;
    if (GetParam() == "disk-index") {
      cfg.index_impl = IndexImpl::kDisk;
    }
    return cfg;
  }

  /// The uninterrupted reference run. gc after f0+f1 mirrors the victim's
  /// post-crash cleanup point (gc deletes the disk tier, so the baseline
  /// must do so at the same logical position for bit-identity); the final gc
  /// is the shared normalization both runs end on.
  void build_baseline(const std::filesystem::path& dir) {
    DaemonProc d = spawn_daemon(dir, engine());
    ASSERT_FALSE(d.spec.empty()) << "baseline daemon failed to boot";
    put_file(d.spec, "f0.img", file_f0());
    put_file(d.spec, "f1.img", file_f1());
    run_gc(d.spec);
    put_file(d.spec, "f2.img", file_f2());
    run_gc(d.spec);
    graceful_stop(d);
  }

  /// Recovery drill, steps two..five: restart, prove committed files are
  /// intact and the victim invisible, sweep the residue, re-ingest,
  /// normalize. Leaves the repository stopped.
  void recover_and_reingest(const std::filesystem::path& dir) {
    DaemonProc d = spawn_daemon(dir, engine());
    ASSERT_FALSE(d.spec.empty()) << "daemon failed to restart after repair";
    expect_restores_exactly(d.spec, "f0.img", file_f0());
    expect_restores_exactly(d.spec, "f1.img", file_f1());
    expect_file_absent(d.spec, "f2.img");
    run_gc(d.spec);  // sweep crash residue BEFORE re-ingest: orphaned
                     // partial-PUT objects must not influence dedup
    put_file(d.spec, "f2.img", file_f2());
    run_gc(d.spec);
    graceful_stop(d);
  }
};

TEST_P(DaemonChaosTest, KillNineMidPutThenFsckRepairConvergesToBaseline) {
  const auto baseline = fresh_dir(GetParam() + "_put_base");
  ASSERT_NO_FATAL_FAILURE(build_baseline(baseline));

  // Seeded crash points: before any payload frame, after the first, and
  // deep enough into the stream that chunks have reached the store.
  for (const int frames : {0, 1, 3}) {
    SCOPED_TRACE("SIGKILL after " + std::to_string(frames) +
                 " PutData frames");
    const auto dir =
        fresh_dir(GetParam() + "_put_k" + std::to_string(frames));

    DaemonProc d = spawn_daemon(dir, engine());
    ASSERT_FALSE(d.spec.empty()) << "victim daemon failed to boot";
    put_file(d.spec, "f0.img", file_f0());
    put_file(d.spec, "f1.img", file_f1());
    run_gc(d.spec);
    const int fd = start_partial_put(d.spec, "f2.img", file_f2(), frames);
    ::usleep(30'000);  // let the engine consume mid-stream
    ASSERT_NO_FATAL_FAILURE(kill_nine(d));
    if (fd >= 0) ::close(fd);

    repair_and_expect_clean(dir);
    ASSERT_NO_FATAL_FAILURE(recover_and_reingest(dir));

    FileBackend a(baseline), b(dir);
    expect_backends_identical(a, b);
  }
}

TEST_P(DaemonChaosTest, KillNineMidGcDuringRecoveryStillConverges) {
  const auto baseline = fresh_dir(GetParam() + "_gc_base");
  ASSERT_NO_FATAL_FAILURE(build_baseline(baseline));

  // Compound failure: crash mid-PUT, then crash AGAIN during the recovery
  // gc that is sweeping the first crash's residue (mid chunk sweep or mid
  // index deletion). Recovery must still converge.
  const auto dir = fresh_dir(GetParam() + "_gc_victim");
  DaemonProc d = spawn_daemon(dir, engine());
  ASSERT_FALSE(d.spec.empty()) << "victim daemon failed to boot";
  put_file(d.spec, "f0.img", file_f0());
  put_file(d.spec, "f1.img", file_f1());
  run_gc(d.spec);
  const int fd = start_partial_put(d.spec, "f2.img", file_f2(), 2);
  ::usleep(30'000);
  ASSERT_NO_FATAL_FAILURE(kill_nine(d));
  if (fd >= 0) ::close(fd);
  repair_and_expect_clean(dir);

  DaemonProc d2 = spawn_daemon(dir, engine());
  ASSERT_FALSE(d2.spec.empty()) << "daemon failed to restart after repair";
  {
    // Fire the gc raw and SIGKILL while it runs — no response awaited.
    const int mfd = connect_to(d2.spec);
    ASSERT_GE(mfd, 0);
    ByteVec req;
    req.push_back(static_cast<Byte>(MaintainOp::kGc));
    write_frame(mfd, MsgType::kMaintain, ByteSpan{req});
    ::usleep(3'000);
    ASSERT_NO_FATAL_FAILURE(kill_nine(d2));
    ::close(mfd);
  }
  repair_and_expect_clean(dir);

  ASSERT_NO_FATAL_FAILURE(recover_and_reingest(dir));
  FileBackend a(baseline), b(dir);
  expect_backends_identical(a, b);
}

TEST_P(DaemonChaosTest, RetryingClientSpansDaemonRestart) {
  // A unix socket keeps the dial target stable across the restart, so one
  // client connection's retry loop can ride over the kill: its first
  // attempt dies on the corpse, reconnects fail while the daemon is down,
  // and a later redial lands on the restarted instance.
  const auto dir = fresh_dir(GetParam() + "_restart");
  const std::string listen =
      "unix:" + (dir / "daemon.sock").string();

  DaemonProc d = spawn_daemon(dir, engine(), listen);
  ASSERT_FALSE(d.spec.empty()) << "daemon failed to boot";
  auto client = DedupClient::connect(d.spec);
  ASSERT_TRUE(client);
  client->set_retry_policy(chaos_policy());
  const ByteVec f0 = file_f0();
  ASSERT_TRUE(client->put_bytes(kTenant, "f0.img", ByteSpan{f0}).ok);

  ASSERT_NO_FATAL_FAILURE(kill_nine(d));
  repair_and_expect_clean(dir);
  DaemonProc d2 = spawn_daemon(dir, engine(), listen);
  ASSERT_FALSE(d2.spec.empty()) << "daemon failed to restart";

  // Same client object, same dead connection: the retry policy must
  // reconnect to the restarted daemon and complete the request.
  ByteVec out;
  const auto r =
      client->get(kTenant, "f0.img", [&](ByteSpan c) { append(out, c); });
  EXPECT_TRUE(r.ok) << r.message;
  EXPECT_GE(client->retries(), 1u);
  ASSERT_EQ(out.size(), f0.size());
  EXPECT_TRUE(std::equal(out.begin(), out.end(), f0.begin()));

  graceful_stop(d2);
}

INSTANTIATE_TEST_SUITE_P(Engines, DaemonChaosTest,
                         ::testing::Values("mem-index", "disk-index"),
                         [](const auto& info) {
                           std::string n = info.param;
                           std::replace(n.begin(), n.end(), '-', '_');
                           return n;
                         });

}  // namespace
}  // namespace mhd::server
