// DedupClient — typed client for the daemon protocol.
//
// One connection, one request at a time (the protocol is strict
// request/response). Results carry the admission-control outcome
// explicitly: `busy` + retry_after_ms when the daemon is at its session
// limit, `quota` when a PUT hit the tenant's limits, `retryable` when the
// daemon hit a transient store fault and asked for a re-send, and
// `transport` when the connection itself died. Both CLI subcommands and
// the server tests drive the daemon exclusively through this class.
//
// Resilience is opt-in via set_retry_policy(): with a nonzero retry
// count, every operation absorbs Busy responses, Retry responses and
// transport failures by backing off (capped exponential with
// deterministic jitter, honoring the daemon's retry_after_ms hint),
// reconnecting when the connection is gone, and re-sending the request.
// PUTs re-send through a source factory (a ByteSource is not rewindable);
// GETs only retry while zero payload bytes have reached the sink (the
// sink is not rewindable either). The default policy retries nothing —
// exactly the historical behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "mhd/chunk/byte_source.h"
#include "mhd/server/protocol.h"

namespace mhd::server {

/// Client-side backoff contract. An operation is attempted once plus at
/// most max_retries more times; before retry k (0-based) the client
/// sleeps max(daemon hint, jitter(min(base_backoff_ms << k,
/// max_backoff_ms))) where jitter draws uniformly from [d/2, d] with a
/// seeded xorshift — deterministic for tests, decorrelated across
/// clients via the seed. budget_ms caps the SUM of sleeps (0 = no cap):
/// once the next sleep would exceed it, the last failure is returned.
struct RetryPolicy {
  std::uint32_t max_retries = 0;  ///< 0 = never retry (historical)
  std::uint32_t base_backoff_ms = 10;
  std::uint32_t max_backoff_ms = 2'000;
  std::uint32_t budget_ms = 0;
  std::uint64_t seed = 1;
};

class DedupClient {
 public:
  /// Connects to "unix:<path>" or "tcp:<port>"; nullopt on failure.
  static std::optional<DedupClient> connect(const std::string& spec);
  ~DedupClient();
  DedupClient(DedupClient&& other) noexcept;
  DedupClient& operator=(DedupClient&&) = delete;
  DedupClient(const DedupClient&) = delete;
  DedupClient& operator=(const DedupClient&) = delete;

  struct Result {
    bool ok = false;
    bool busy = false;    ///< daemon at max sessions; retry after hint
    bool quota = false;   ///< tenant quota exceeded
    /// Daemon answered Retry: a transient store fault consumed the
    /// request but the connection is fine; re-sending should succeed.
    bool retryable = false;
    /// The connection itself failed (closed, reset, malformed response).
    /// Retrying requires a reconnect; the retry policy does that.
    bool transport = false;
    std::uint32_t retry_after_ms = 0;
    std::string message;  ///< Ok payload (JSON where structured) or error
  };

  struct GetResult : Result {
    std::uint64_t produced = 0;
    /// False when the daemon hit damaged objects mid-restore (short
    /// stream, never wrong bytes).
    bool stream_ok = false;
  };

  /// Re-creates a fresh ByteSource for each PUT (re)send attempt.
  using SourceFactory = std::function<std::unique_ptr<ByteSource>()>;

  /// Installs the backoff contract for every subsequent operation. The
  /// default-constructed policy (max_retries = 0) disables retries.
  void set_retry_policy(RetryPolicy policy);
  /// Retries performed so far (reconnect attempts included) — the chaos
  /// tests and bench assert these are nonzero under fault plans.
  std::uint64_t retries() const { return retries_; }

  /// Streams `src` as the tenant's file `name`. ONE attempt — a consumed
  /// ByteSource cannot be replayed, so this flavour never retries; use
  /// the factory overload (or put_bytes) for retrying ingest.
  Result put(const std::string& tenant, const std::string& name,
             ByteSource& src);
  /// Retrying PUT: `make_src` is invoked once per attempt.
  Result put(const std::string& tenant, const std::string& name,
             const SourceFactory& make_src);
  Result put_bytes(const std::string& tenant, const std::string& name,
                   ByteSpan data);

  /// Streams the restored bytes into `sink` chunk by chunk. Retries only
  /// while nothing has been delivered to the sink yet.
  GetResult get(const std::string& tenant, const std::string& name,
                const std::function<void(ByteSpan)>& sink);

  Result ls(const std::string& tenant);  ///< message: JSON file array
  /// message: JSON daemon stats. `reset` atomically zeroes the latency
  /// histograms with the snapshot (bench phase boundaries).
  Result stats(bool reset = false);
  Result maintain(MaintainOp op);        ///< message: JSON report
  Result ping();

 private:
  DedupClient(int fd, std::string spec)
      : fd_(fd),
        reader_(std::make_unique<FrameReader>(fd)),
        spec_(std::move(spec)) {}
  Result read_response();
  /// Drops the dead connection and dials spec_ again.
  bool reconnect();
  std::uint32_t backoff_ms(std::uint32_t attempt, std::uint32_t hint_ms);
  /// The retry loop shared by every operation: reconnect-and-retry on
  /// busy/transport, plain re-send on retryable, give up on everything
  /// else (ok, quota, fatal error) or when `may_retry` says no (the GET
  /// partial-delivery guard).
  Result with_retry(const std::function<Result()>& attempt,
                    const std::function<bool()>& may_retry = nullptr);

  int fd_ = -1;
  /// Owns the connection's read side (coalesced reads); behind a pointer
  /// because FrameReader is non-movable and DedupClient moves.
  std::unique_ptr<FrameReader> reader_;
  std::string spec_;  ///< original dial target, for reconnects
  /// Staging slab reused by every put() of this client's lifetime.
  ByteVec put_buf_;
  RetryPolicy policy_;
  std::uint64_t rng_ = 0x9E3779B97F4A7C15ULL;
  std::uint64_t retries_ = 0;
};

}  // namespace mhd::server
