// DedupDaemon — the long-running multi-tenant dedup server.
//
// One daemon owns one repository (the caller holds the StoreLock) and
// serves many concurrent ingest/restore sessions over the protocol in
// protocol.h. Architecture, per connection:
//
//   accept thread ── admission check ──▶ session thread
//                                         PUT: engine pulls PutData frames
//                                              inline (SocketFrameSource)
//                                         GET: RestoreReader streaming
//
// PUT data path (see DESIGN.md §8 "Data path"): the session thread runs
// the dedup engine directly and the engine PULLS payload bytes out of the
// connection's FrameReader — no per-PUT worker thread, no frame queue, no
// per-frame allocation. Backpressure is the transport itself: when dedup
// stalls, the daemon stops reading and TCP/Unix flow control reaches the
// client.
//
// Engines are per-tenant and PERSISTENT (EngineSession): the first PUT
// constructs the tenant's TenantView → ObjectStore → engine stack and
// later PUTs reuse it with the manifest cache, bloom filter and index
// handles warm. Every PUT ends with MhdEngine::flush_session(), which
// makes the session state bit-identical — on disk and in future dedup
// decisions — to tearing the engine down and rebuilding it (the fresh-
// engine baseline the equivalence tests compare against). Sessions are
// dropped at the maintenance gate (gc rewrites hooks/manifests/index
// beneath them), on any ingest error (a half-run engine's cache state is
// not derivable from disk), and at daemon stop.
//
// Sharing and isolation:
//   * every session sees the repository through a TenantView (namespace
//     prefix, see tenant_view.h) stacked on ONE SyncBackend that
//     linearizes the physical store;
//   * a tenant's PUTs serialize on the tenant's write mutex (one writer
//     per namespace), while PUTs of different tenants and all GETs run
//     concurrently;
//   * GETs never construct an engine — RestoreReader streams straight
//     from the (read-only) tenant view, so restore storms scale with
//     sessions, not with engine state.
//
// Admission control: at most max_sessions concurrent sessions; a rejected
// connection receives Busy(retry_after_ms) and is closed, and the
// rejection is counted.
//
// Online maintenance: gc/fsck take the maintenance lock exclusively —
// they wait for in-flight requests to drain (each request holds it
// shared, and every PUT flushes at its end), drop all warm engine
// sessions, run against the quiesced store, then resume.
//
// Quotas: per-tenant logical-byte and file-count limits, seeded from the
// repository on the tenant's first touch and enforced during streaming;
// an over-quota PUT is aborted mid-stream with a Quota response.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>

#include "mhd/dedup/engine.h"
#include "mhd/server/fault_conn.h"
#include "mhd/server/latency_histogram.h"
#include "mhd/server/protocol.h"
#include "mhd/server/tenant_view.h"
#include "mhd/store/sync_backend.h"

namespace mhd::server {

struct DaemonConfig {
  /// "unix:<path>" or "tcp:<port>" (loopback; 0 = ephemeral, see port()).
  std::string listen = "tcp:0";
  std::uint32_t max_sessions = 8;
  /// Suggested client back-off returned with Busy and Retry responses.
  std::uint32_t retry_after_ms = 100;
  /// SO_RCVTIMEO applied to every admitted connection: a peer that stalls
  /// mid-frame longer than this is reaped (IdleTimeoutError), freeing its
  /// admission slot. 0 disables the timeout (reads may block forever).
  std::uint32_t idle_timeout_ms = 30'000;
  /// Network chaos plan (fault_conn.h grammar), applied to admitted
  /// connections. Empty = no fault injection. Parsed at construction;
  /// a malformed plan throws std::invalid_argument from the constructor.
  std::string net_fault_plan;
  TenantQuota quota;  ///< applied to every tenant
  EngineConfig engine;
};

/// Point-in-time counters for one tenant (stats RPC / tests).
struct TenantCounters {
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t files = 0;
  std::uint64_t logical_bytes = 0;
  std::uint64_t ingest_bytes = 0;
  std::uint64_t restore_bytes = 0;
  std::uint64_t dup_bytes = 0;
  /// Peak bytes held in the connection FrameReaders' coalescing buffers
  /// during this tenant's PUTs (was the PutData queue depth before the
  /// inline data path).
  std::uint64_t queue_high_water = 0;
  std::uint64_t quota_rejections = 0;
  /// GETs that failed: no such file, or the stream ended short because of
  /// damaged objects. Their latencies live in a separate histogram so
  /// fast failures cannot pollute the success percentiles.
  std::uint64_t get_errors = 0;
  /// Failure taxonomy (per tenant; the same events are also counted
  /// globally, including ones that die before a tenant is known):
  ///  * protocol_errors — malformed frames / handshake violations from
  ///    this tenant's connections (hostile or corrupted peers);
  ///  * peer_disconnects — benign deaths: EPIPE/ECONNRESET or EOF
  ///    mid-frame (a client killed mid-PUT);
  ///  * idle_timeout_reaps — connections reaped by SO_RCVTIMEO while a
  ///    request for this tenant was in flight (slowloris);
  ///  * transient_retries — store-level reads that hit TransientReadError
  ///    and were absorbed by retry (PUT via ObjectStore, GET via
  ///    RestoreReader) — nonzero means the backend flaked but no request
  ///    failed;
  ///  * retryable_errors — requests that exhausted store retries and were
  ///    answered with a Retry response (session dropped and rebuilt, the
  ///    client is expected to re-send).
  std::uint64_t protocol_errors = 0;
  std::uint64_t peer_disconnects = 0;
  std::uint64_t idle_timeout_reaps = 0;
  std::uint64_t transient_retries = 0;
  std::uint64_t retryable_errors = 0;
  /// Sampled similarity tier (all zero on mem/disk indexes): champion
  /// loads and missed-duplicate bytes are per-PUT deltas accumulated
  /// across this tenant's PUTs; hook entries is a gauge from the last PUT.
  std::uint64_t champion_loads = 0;
  std::uint64_t sampled_missed_dup_bytes = 0;
  std::uint64_t sampled_hook_entries = 0;
  std::uint64_t put_p50_us = 0, put_p99_us = 0;
  std::uint64_t get_p50_us = 0, get_p99_us = 0;
};

class DedupDaemon {
 public:
  /// `active` is the top of the repository's backend stack (container/
  /// framed/fault layers applied); the second parameter is unused (online
  /// fsck checks `active` itself, one tenant scope at a time). The daemon
  /// interposes its own SyncBackend — the caller's stack need not be
  /// thread-safe. Throws std::invalid_argument for a malformed net-fault
  /// plan or a rewrite mode.
  DedupDaemon(StorageBackend& active, StorageBackend&, DaemonConfig cfg);
  ~DedupDaemon();

  DedupDaemon(const DedupDaemon&) = delete;
  DedupDaemon& operator=(const DedupDaemon&) = delete;

  /// Binds the listener and starts accepting. Throws on bind failure.
  void start();
  /// Stops accepting, unblocks and joins every session, closes the
  /// listener. Idempotent.
  void stop();

  /// Resolved listen spec ("tcp:<real port>" after an ephemeral bind).
  std::string listen_spec() const;
  int port() const { return listener_.port(); }

  /// The stats RPC's payload (also reachable without a connection).
  std::string stats_json() const;
  /// Same snapshot, but atomically resets every latency histogram under
  /// the same lock hold — the stats RPC's reset flag, for benchmarks that
  /// measure phases without restarting the daemon.
  std::string stats_json_and_reset();

  std::uint64_t sessions_served() const { return sessions_served_.load(); }
  std::uint64_t busy_rejections() const { return busy_rejections_.load(); }
  std::uint32_t active_sessions() const { return active_sessions_.load(); }
  std::uint64_t protocol_errors() const { return protocol_errors_.load(); }
  std::uint64_t peer_disconnects() const { return peer_disconnects_.load(); }
  std::uint64_t idle_timeout_reaps() const {
    return idle_timeout_reaps_.load();
  }
  std::uint64_t retryable_errors() const { return retryable_errors_.load(); }

 private:
  struct EngineSession;  ///< warm TenantView→ObjectStore→engine stack

  struct TenantState {
    std::mutex write_mu;  ///< one writer per tenant namespace
    bool seeded = false;
    std::uint64_t files = 0;
    std::uint64_t logical_bytes = 0;
    TenantCounters counters;
    LatencyHistogram put_us;
    LatencyHistogram get_us;
    LatencyHistogram get_err_us;  ///< failed GETs, kept out of get_us
    /// Warm engine stack, reused across PUTs. Touched only under write_mu,
    /// except the maintenance gate / stop, which hold the exclusive
    /// maintenance lock (no PUT can be in flight then).
    std::unique_ptr<EngineSession> session;
  };

  struct SessionSlot {
    std::thread thread;
    std::atomic<bool> done{false};
    int fd = -1;
  };

  void accept_loop();
  void serve_connection(SessionSlot& slot);
  /// Request handlers; each runs under the maintenance lock (shared).
  /// handle_put returns false when the connection died mid-PUT. It counts
  /// that drop, per tenant and globally, while it still holds the tenant's
  /// writer lock, so a retried PUT (which waits for the lock) finds the
  /// drop in stats; the serve loop then closes without counting again.
  bool handle_put(int fd, FrameReader& reader, ByteSpan payload);
  /// `buf` is the connection's GET staging buffer (kStreamFrameBytes).
  void handle_get(int fd, ByteSpan payload, ByteVec& buf);
  void handle_ls(int fd, ByteSpan payload);
  void handle_maintain(int fd, ByteSpan payload);
  /// Flush boundary: destroys every tenant's warm engine session. Caller
  /// must guarantee no PUT is in flight (exclusive maintenance lock, or
  /// all session threads joined).
  void drop_engine_sessions();
  std::string build_stats_json(bool reset_histograms) const;

  TenantState& tenant(const std::string& id);
  /// First-touch quota seeding from the repository (caller holds the
  /// tenant's write_mu or is otherwise the only accessor).
  void seed_tenant(const std::string& id, TenantState& ts);
  void reap_finished_sessions();

  SyncBackend sync_;       ///< linearizes the shared stack for sessions
  DaemonConfig cfg_;
  Listener listener_;
  std::thread accept_thread_;
  std::atomic<bool> running_{false};

  /// Maintenance lock: requests shared, gc/fsck exclusive (quiesce).
  std::shared_mutex maint_mu_;

  mutable std::mutex reg_mu_;  ///< tenants_ + sessions_ + counter updates
  std::map<std::string, std::unique_ptr<TenantState>> tenants_;
  std::list<std::unique_ptr<SessionSlot>> sessions_;

  /// Parsed from cfg_.net_fault_plan at construction (empty = no chaos).
  NetFaultPlan net_fault_plan_;

  std::atomic<std::uint32_t> active_sessions_{0};
  std::atomic<std::uint64_t> sessions_served_{0};
  std::atomic<std::uint64_t> busy_rejections_{0};
  std::atomic<std::uint64_t> maintenance_runs_{0};
  /// Admitted-connection sequence (1-based), the chaos plan's conn index.
  std::atomic<std::uint64_t> accepted_conns_{0};
  /// Global failure taxonomy — see TenantCounters for the field glossary.
  /// Counted at the serve loop, so events with no attributable tenant
  /// (malformed PutBegin, garbage between requests) still land here.
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> peer_disconnects_{0};
  std::atomic<std::uint64_t> idle_timeout_reaps_{0};
  std::atomic<std::uint64_t> transient_retries_{0};
  std::atomic<std::uint64_t> retryable_errors_{0};
};

}  // namespace mhd::server
