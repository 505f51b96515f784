// Multi-tenant daemon throughput: concurrent sessions vs aggregate
// ingest/restore bandwidth and tail latency.
//
//   server_throughput [--sessions=1,4,8] [--files=4] [--file_kb=512]
//                     [--fault-plan=SPEC|none] [--seed=N]
//                     [--net-fault-plan=SPEC|none]
//                     [--json=BENCH_server.json]
//
// For each session count S the harness starts a fresh in-process daemon
// on a loopback socket and drives S concurrent client sessions (disjoint
// tenants) through the real wire protocol: every session PUTs `files`
// files of `file_kb` KiB (consecutive files share half their content, so
// the dedup path is exercised), then GETs them all back with byte
// verification. Each sweep runs twice: clean, and with a deterministic
// storage fault plan injected below the framing layer (restores absorb
// the transient read errors through the bounded in-stream retry — the
// row's `errors` column shows what still surfaced).
//
// A final chaos row (largest session count) replaces storage faults with
// NETWORK faults — a seeded net-fault plan (server/fault_conn.h) tearing
// and resetting early connections — drives every client with a retry
// policy, and restarts the daemon cold at the phase midpoint. Its columns
// are the effective MB/s over the whole wall clock (restart blackout
// included), the retries the clients absorbed, and the blackout length
// from stop() to the successor daemon serving its first request.
// --net-fault-plan=none skips it (the perf-smoke gate does).
//
// Reported per (sessions, faults, phase): aggregate MB/s over the phase
// wall clock, exact p50/p99 per-request latency, and payload bytes moved
// per transport syscall (the process-wide transport_stats). The daemon
// runs in-process, so both sides of the loopback conversation are
// counted. BENCH_server.json at the repo root is the recorded baseline
// (see --json).
//
// --floor-mbps=N (or the MHD_PERF_SMOKE_FLOOR_MBPS env var, which wins)
// turns the run into a pass/fail gate: exit 1 unless the clean
// single-session ingest sustains at least N MB/s. The `perf-smoke` ctest
// uses it to catch data-path regressions.
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mhd/repo/repository.h"
#include "mhd/server/client.h"
#include "mhd/server/daemon.h"
#include "mhd/store/memory_backend.h"
#include "mhd/util/flags.h"

namespace {

using namespace mhd;
using namespace mhd::server;
using Clock = std::chrono::steady_clock;

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

/// `files` blobs per tenant; file k shares its first half with file k-1.
std::vector<ByteVec> session_files(std::uint64_t tenant, int files,
                                   std::size_t bytes, std::uint64_t seed) {
  std::vector<ByteVec> out;
  for (int k = 0; k < files; ++k) {
    ByteVec blob = make_blob(seed + tenant * 1000 + k, bytes);
    if (k > 0) {
      std::copy(out.back().begin(),
                out.back().begin() + static_cast<std::ptrdiff_t>(bytes / 2),
                blob.begin());
    }
    out.push_back(std::move(blob));
  }
  return out;
}

struct Row {
  int sessions = 0;
  bool faults = false;
  const char* phase = "";
  double mb_per_s = 0;
  std::uint64_t p50_us = 0, p99_us = 0;
  int errors = 0;
  double bytes_per_syscall = 0;  ///< transport payload bytes / syscalls
  std::uint64_t retries = 0;     ///< client retries absorbed (chaos row)
  double recovery_ms = 0;        ///< daemon restart -> first served ping
};

/// Transport payload bytes per syscall since the last
/// reset_transport_stats() (called at each phase's start).
double bytes_per_syscall() {
  const auto t = transport_stats();
  const auto calls = t.read_calls + t.write_calls;
  return calls == 0 ? 0.0
                    : static_cast<double>(t.read_bytes + t.write_bytes) /
                          static_cast<double>(calls);
}

std::uint64_t pct(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(q * (v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

void run_config(int sessions, const std::string& fault_plan, int files,
                std::size_t file_bytes, std::uint64_t seed,
                std::vector<Row>& rows) {
  MemoryBackend mem;
  EngineConfig layout;
  layout.framed = true;
  layout.fault_plan = fault_plan;
  BackendStack stack(mem, layout);

  DaemonConfig dc;
  dc.listen = "tcp:0";
  dc.max_sessions = static_cast<std::uint32_t>(sessions) + 2;
  DedupDaemon daemon(stack.top(), mem, dc);
  daemon.start();
  const std::string spec = daemon.listen_spec();

  std::mutex agg_mu;
  std::vector<std::uint64_t> put_us, get_us;
  std::atomic<int> put_errors{0}, get_errors{0};
  const std::uint64_t bytes_per_phase =
      static_cast<std::uint64_t>(sessions) * files * file_bytes;

  const double mb = static_cast<double>(bytes_per_phase) / (1024.0 * 1024.0);
  Row ingest_row{sessions, !fault_plan.empty(), "ingest"};
  Row restore_row{sessions, !fault_plan.empty(), "restore"};

  reset_transport_stats();
  const auto ingest_start = Clock::now();
  {
    std::vector<std::thread> workers;
    for (int s = 0; s < sessions; ++s) {
      workers.emplace_back([&, s] {
        auto client = DedupClient::connect(spec);
        if (!client) {
          put_errors += files;
          return;
        }
        const auto data = session_files(s, files, file_bytes, seed);
        std::vector<std::uint64_t> local;
        for (int k = 0; k < files; ++k) {
          const auto t0 = Clock::now();
          const auto r = client->put_bytes(
              "s" + std::to_string(s), "f" + std::to_string(k) + ".img",
              ByteSpan{data[k]});
          local.push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - t0)
                  .count()));
          if (!r.ok) ++put_errors;
        }
        std::lock_guard<std::mutex> lock(agg_mu);
        put_us.insert(put_us.end(), local.begin(), local.end());
      });
    }
    for (auto& w : workers) w.join();
  }
  const double ingest_s =
      std::chrono::duration<double>(Clock::now() - ingest_start).count();
  ingest_row.bytes_per_syscall = bytes_per_syscall();

  // The ingest clients have hung up, but their session threads may not
  // have released their slots yet; a restore client arriving first would
  // be refused as busy.
  while (daemon.active_sessions() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  reset_transport_stats();
  const auto restore_start = Clock::now();
  {
    std::vector<std::thread> workers;
    for (int s = 0; s < sessions; ++s) {
      workers.emplace_back([&, s] {
        auto client = DedupClient::connect(spec);
        if (!client) {
          get_errors += files;
          return;
        }
        const auto data = session_files(s, files, file_bytes, seed);
        std::vector<std::uint64_t> local;
        for (int k = 0; k < files; ++k) {
          ByteVec out;
          const auto t0 = Clock::now();
          const auto r = client->get(
              "s" + std::to_string(s), "f" + std::to_string(k) + ".img",
              [&](ByteSpan chunk) { append(out, chunk); });
          local.push_back(static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  Clock::now() - t0)
                  .count()));
          if (!r.ok || !r.stream_ok || out != data[k]) ++get_errors;
        }
        std::lock_guard<std::mutex> lock(agg_mu);
        get_us.insert(get_us.end(), local.begin(), local.end());
      });
    }
    for (auto& w : workers) w.join();
  }
  const double restore_s =
      std::chrono::duration<double>(Clock::now() - restore_start).count();
  restore_row.bytes_per_syscall = bytes_per_syscall();
  daemon.stop();

  ingest_row.mb_per_s = mb / ingest_s;
  ingest_row.p50_us = pct(put_us, 0.50);
  ingest_row.p99_us = pct(put_us, 0.99);
  ingest_row.errors = put_errors.load();
  restore_row.mb_per_s = mb / restore_s;
  restore_row.p50_us = pct(get_us, 0.50);
  restore_row.p99_us = pct(get_us, 0.99);
  restore_row.errors = get_errors.load();
  rows.push_back(ingest_row);
  rows.push_back(restore_row);
}

/// Chaos sweep: ingest through a seeded NETWORK fault plan (torn frames,
/// resets on early connections) with retrying clients, plus one full
/// daemon restart mid-phase. Reports the effective bandwidth over the
/// whole wall clock (blackout included), how many retries the clients
/// absorbed, and how long the restart blackout lasted from stop() to the
/// first served request — the dedup cost of "the server died and came
/// back" with resilient clients.
void run_chaos_config(int sessions, const std::string& net_spec, int files,
                      std::size_t file_bytes, std::uint64_t seed,
                      std::vector<Row>& rows) {
  MemoryBackend mem;
  EngineConfig layout;
  layout.framed = true;
  BackendStack stack(mem, layout);
  const std::string sock = "server_throughput_chaos.sock";
  ::unlink(sock.c_str());

  DaemonConfig dc;
  dc.listen = "unix:" + sock;
  dc.max_sessions = static_cast<std::uint32_t>(sessions) + 2;
  dc.net_fault_plan = net_spec;
  auto daemon = std::make_unique<DedupDaemon>(stack.top(), mem, dc);
  daemon->start();
  const std::string spec = daemon->listen_spec();

  const std::uint64_t bytes_per_phase =
      static_cast<std::uint64_t>(sessions) * files * file_bytes;
  const double mb = static_cast<double>(bytes_per_phase) / (1024.0 * 1024.0);
  Row row{sessions, true, "chaos-ingest"};

  std::mutex agg_mu;
  std::vector<std::uint64_t> put_us;
  std::atomic<int> errors{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<int> completed{0};
  const int total_puts = sessions * files;

  reset_transport_stats();
  const auto start = Clock::now();
  std::vector<std::thread> workers;
  for (int s = 0; s < sessions; ++s) {
    workers.emplace_back([&, s] {
      auto client = DedupClient::connect(spec);
      if (!client) {
        errors += files;
        completed += files;
        return;
      }
      RetryPolicy policy;
      policy.max_retries = 400;
      policy.base_backoff_ms = 2;
      policy.max_backoff_ms = 50;
      policy.seed = seed + static_cast<std::uint64_t>(s);
      client->set_retry_policy(policy);
      const auto data = session_files(s, files, file_bytes, seed);
      std::vector<std::uint64_t> local;
      for (int k = 0; k < files; ++k) {
        const auto t0 = Clock::now();
        const auto r = client->put_bytes(
            "s" + std::to_string(s), "f" + std::to_string(k) + ".img",
            ByteSpan{data[k]});
        local.push_back(static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                Clock::now() - t0)
                .count()));
        if (!r.ok) ++errors;
        ++completed;
      }
      retries += client->retries();
      std::lock_guard<std::mutex> lock(agg_mu);
      put_us.insert(put_us.end(), local.begin(), local.end());
    });
  }

  // Kill-and-restart at the phase's midpoint: the clients ride the
  // blackout on their retry budgets. The probe measures stop() -> first
  // request served by the successor.
  while (completed.load() < total_puts / 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto stop_at = Clock::now();
  daemon->stop();
  daemon.reset();
  ::unlink(sock.c_str());
  daemon = std::make_unique<DedupDaemon>(stack.top(), mem, dc);
  daemon->start();
  for (;;) {
    auto probe = DedupClient::connect(spec);
    if (probe && probe->ping().ok) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  row.recovery_ms =
      std::chrono::duration<double>(Clock::now() - stop_at).count() * 1e3;

  for (auto& w : workers) w.join();
  const double phase_s =
      std::chrono::duration<double>(Clock::now() - start).count();
  row.bytes_per_syscall = bytes_per_syscall();
  daemon->stop();
  ::unlink(sock.c_str());

  row.mb_per_s = mb / phase_s;
  row.p50_us = pct(put_us, 0.50);
  row.p99_us = pct(put_us, 0.99);
  row.errors = errors.load();
  row.retries = retries.load();
  rows.push_back(row);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const auto sessions_list =
      flags.get_int_list("sessions", std::vector<std::int64_t>{1, 4, 8});
  const int files = static_cast<int>(flags.get_int("files", 4));
  const std::size_t file_bytes =
      static_cast<std::size_t>(flags.get_int("file_kb", 512)) << 10;
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1));
  // Transient read errors late in the op stream, absorbed by the restore
  // retry path; `none` skips the fault sweep entirely.
  const std::string fault_spec =
      flags.get("fault-plan", "readerr@40x3,readerr@90x2,seed:7");

  std::vector<Row> rows;
  for (const auto s : sessions_list) {
    run_config(static_cast<int>(s), "", files, file_bytes, seed, rows);
  }
  if (fault_spec != "none") {
    for (const auto s : sessions_list) {
      run_config(static_cast<int>(s), fault_spec, files, file_bytes, seed,
                 rows);
    }
  }
  // Network chaos sweep (largest session count only — the interesting
  // number is effective bandwidth with ALL clients riding the faults).
  const std::string net_spec =
      flags.get("net-fault-plan", "torn@3,reset@6,conn@1x2,conn@5x1,seed:9");
  if (net_spec != "none" && !sessions_list.empty()) {
    run_chaos_config(static_cast<int>(sessions_list.back()), net_spec, files,
                     file_bytes, seed, rows);
  }

  std::printf("%9s %7s %13s %10s %9s %9s %7s %11s %8s %9s\n", "sessions",
              "faults", "phase", "MB/s", "p50_us", "p99_us", "errors",
              "B/syscall", "retries", "recov_ms");
  for (const auto& r : rows) {
    std::printf(
        "%9d %7s %13s %10.1f %9llu %9llu %7d %11.0f %8llu %9.1f\n",
        r.sessions, r.faults ? "yes" : "no", r.phase, r.mb_per_s,
        static_cast<unsigned long long>(r.p50_us),
        static_cast<unsigned long long>(r.p99_us), r.errors,
        r.bytes_per_syscall, static_cast<unsigned long long>(r.retries),
        r.recovery_ms);
  }

  const std::string json = flags.get("json", "");
  if (!json.empty()) {
    std::ofstream out(json);
    out << "{\n  \"bench\": \"server_throughput\",\n";
    out << "  \"files_per_session\": " << files << ",\n";
    out << "  \"file_kb\": " << (file_bytes >> 10) << ",\n";
    out << "  \"host_cpus\": " << std::thread::hardware_concurrency()
        << ",\n";
    out << "  \"fault_plan\": \""
        << (fault_spec == "none" ? "" : fault_spec) << "\",\n";
    out << "  \"net_fault_plan\": \""
        << (net_spec == "none" ? "" : net_spec) << "\",\n";
    out << "  \"rows\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      char buf[320];
      std::snprintf(buf, sizeof(buf),
                    "    {\"sessions\": %d, \"faults\": %s, \"phase\": "
                    "\"%s\", \"mb_per_s\": %.1f, \"p50_us\": %llu, "
                    "\"p99_us\": %llu, \"errors\": %d, "
                    "\"bytes_per_syscall\": %.0f, \"retries\": %llu, "
                    "\"recovery_ms\": %.1f}%s\n",
                    r.sessions, r.faults ? "true" : "false", r.phase,
                    r.mb_per_s, static_cast<unsigned long long>(r.p50_us),
                    static_cast<unsigned long long>(r.p99_us), r.errors,
                    r.bytes_per_syscall,
                    static_cast<unsigned long long>(r.retries),
                    r.recovery_ms, i + 1 < rows.size() ? "," : "");
      out << buf;
    }
    out << "  ]\n}\n";
    std::printf("wrote %s\n", json.c_str());
  }

  // Perf-smoke gate: fail the run when the clean single-session ingest
  // falls under the floor. The env var outranks the flag so a slow CI
  // host can loosen the bar without editing the test definition.
  double floor_mbps = static_cast<double>(flags.get_int("floor-mbps", 0));
  if (const char* env = std::getenv("MHD_PERF_SMOKE_FLOOR_MBPS")) {
    floor_mbps = std::atof(env);
  }
  if (floor_mbps > 0) {
    for (const auto& r : rows) {
      if (r.sessions != 1 || r.faults || std::string(r.phase) != "ingest") {
        continue;
      }
      if (r.errors != 0 || r.mb_per_s < floor_mbps) {
        std::printf(
            "perf-smoke FAIL: single-session ingest %.1f MB/s "
            "(errors=%d) under floor %.1f MB/s\n",
            r.mb_per_s, r.errors, floor_mbps);
        return 1;
      }
      std::printf("perf-smoke OK: %.1f MB/s >= floor %.1f MB/s\n",
                  r.mb_per_s, floor_mbps);
    }
  }
  return 0;
}
