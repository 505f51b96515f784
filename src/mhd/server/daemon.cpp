#include "mhd/server/daemon.h"

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <exception>
#include <vector>

#include "mhd/core/mhd_engine.h"
#include "mhd/metrics/json_export.h"
#include "mhd/server/protocol.h"
#include "mhd/store/maintenance.h"
#include "mhd/store/object_store.h"
#include "mhd/store/restore_reader.h"
#include "mhd/store/scrub.h"
#include "mhd/store/store_errors.h"

namespace mhd::server {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_us(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

/// ByteSource that pulls PutData payload bytes straight out of the
/// connection's FrameReader — the dedup engine consumes the socket
/// directly on the session thread. No worker thread, no frame queue, no
/// per-frame ByteVec: payload bytes land in whatever buffer the chunker
/// hands down. Backpressure is transport flow control (when the engine
/// stalls, reads stop).
///
/// The stream ends at the PutEnd frame (read() returns 0 from then on).
/// A mid-stream byte-quota breach throws QuotaExceededError; EOF or a
/// non-PutData frame inside the stream throws ProtocolError.
class SocketFrameSource final : public ByteSource {
 public:
  static constexpr std::uint64_t kUnlimited = ~0ull;

  /// read() throws QuotaExceededError once more than `byte_budget` bytes
  /// have streamed (kUnlimited disables the check; 0 aborts on the first
  /// payload byte — a tenant already at its limit may still PUT an empty
  /// file, matching the historical base + streamed > max semantics).
  SocketFrameSource(FrameReader& reader, std::string tenant,
                    std::uint64_t byte_budget)
      : reader_(&reader),
        tenant_(std::move(tenant)),
        byte_budget_(byte_budget) {}

  std::size_t read(MutByteSpan out) override {
    std::size_t done = 0;
    while (done < out.size() && !ended_) {
      if (reader_->payload_remaining() == 0) {
        MsgType type;
        std::uint32_t len;
        if (!reader_->next_header(type, len)) {
          throw ProtocolError("connection closed mid-PUT");
        }
        if (type == MsgType::kPutEnd) {
          if (len != 0) throw ProtocolError("malformed PutEnd");
          ended_ = true;
          break;
        }
        if (type != MsgType::kPutData) {
          throw ProtocolError("unexpected frame inside PUT");
        }
        continue;  // 0-length PutData is legal; fetch the next header
      }
      const std::size_t n =
          reader_->read_payload({out.data() + done, out.size() - done});
      done += n;
      streamed_ += n;
      if (streamed_ > byte_budget_) {
        throw QuotaExceededError(tenant_, "aborted mid-stream");
      }
    }
    return done;
  }

  std::uint64_t streamed() const { return streamed_; }
  bool ended() const { return ended_; }

 private:
  FrameReader* reader_;
  std::string tenant_;
  std::uint64_t byte_budget_;
  std::uint64_t streamed_ = 0;
  bool ended_ = false;
};

/// Consumes the remainder of an in-flight PUT stream through the
/// connection's FrameReader — open frame payload first, then whole frames
/// up to and including PutEnd — so a PUT that failed server-side can be
/// answered on a still-frame-aligned connection (the Retry path keeps the
/// connection alive, unlike the quota path's FIN-and-drop). Throws the
/// same typed errors as the data path when the peer dies or misbehaves
/// mid-drain; the drain cannot hang past SO_RCVTIMEO.
void drain_put_stream(FrameReader& reader) {
  ByteVec sink(32u << 10);
  for (;;) {
    while (reader.payload_remaining() > 0) {
      reader.read_payload({sink.data(), sink.size()});
    }
    MsgType type;
    std::uint32_t len;
    if (!reader.next_header(type, len)) {
      throw PeerDisconnectedError("connection closed mid-PUT");
    }
    if (type == MsgType::kPutEnd) {
      if (len != 0) throw ProtocolError("malformed PutEnd");
      return;
    }
    if (type != MsgType::kPutData) {
      throw ProtocolError("unexpected frame inside PUT");
    }
  }
}

/// Graceful rejection: the response frame is already queued; FIN our write
/// side and drain (bounded) whatever the peer is still streaming, so the
/// close never turns into an RST that destroys the undelivered response.
void drain_rejected(int fd) {
  ::shutdown(fd, SHUT_WR);
  timeval tv{2, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  char sink[4096];
  while (::recv(fd, sink, sizeof(sink), 0) > 0) {
  }
}

}  // namespace

/// The warm per-tenant engine stack. Constructed on a tenant's first PUT
/// and reused by later PUTs (under the tenant's write_mu) until the
/// maintenance gate, an ingest error, or daemon stop drops it. Member
/// order is the dependency order: view over the shared synchronized
/// backend, store over the view, engine over the store.
struct DedupDaemon::EngineSession {
  TenantView view;
  ObjectStore store;
  MhdEngine engine;

  EngineSession(SyncBackend& sync, const std::string& tenant,
                const EngineConfig& cfg)
      : view(sync, tenant), store(view), engine(store, cfg) {}
};

DedupDaemon::DedupDaemon(StorageBackend& active, StorageBackend&,
                         DaemonConfig cfg)
    : sync_(active), cfg_(std::move(cfg)) {
  // Sessions sit on tenant views, which cannot locate containers.
  if (cfg_.engine.rewrite != RewriteMode::kNone) {
    throw std::invalid_argument(std::string("the daemon does not rewrite: ") +
                                rewrite_mode_name(cfg_.engine.rewrite));
  }
  if (cfg_.max_sessions == 0) cfg_.max_sessions = 1;
  if (!cfg_.net_fault_plan.empty()) {
    net_fault_plan_ = NetFaultPlan::parse(cfg_.net_fault_plan);
  }
}

DedupDaemon::~DedupDaemon() { stop(); }

void DedupDaemon::start() {
  listener_.listen(cfg_.listen);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void DedupDaemon::stop() {
  if (!running_.exchange(false)) return;
  listener_.wake();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Unblock sessions stuck in socket reads, then join them all.
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    for (auto& slot : sessions_) {
      if (!slot->done.load() && slot->fd >= 0) {
        ::shutdown(slot->fd, SHUT_RDWR);
      }
    }
  }
  for (;;) {
    std::unique_ptr<SessionSlot> slot;
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      if (sessions_.empty()) break;
      slot = std::move(sessions_.front());
      sessions_.pop_front();
    }
    if (slot->thread.joinable()) slot->thread.join();
  }
  listener_.close();
  // Drain flush boundary: every PUT already ended with flush_session(),
  // so dropping the warm engines here releases their RAM without any
  // further writes.
  drop_engine_sessions();
}

void DedupDaemon::drop_engine_sessions() {
  std::lock_guard<std::mutex> lock(reg_mu_);
  for (auto& [id, ts] : tenants_) ts->session.reset();
}

std::string DedupDaemon::listen_spec() const {
  if (listener_.port() != 0) return "tcp:" + std::to_string(listener_.port());
  return listener_.spec();
}

void DedupDaemon::reap_finished_sessions() {
  std::list<std::unique_ptr<SessionSlot>> finished;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      if ((*it)->done.load()) {
        finished.push_back(std::move(*it));
        it = sessions_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& slot : finished) {
    if (slot->thread.joinable()) slot->thread.join();
  }
}

void DedupDaemon::accept_loop() {
  while (running_.load()) {
    int fd = listener_.accept();
    if (fd < 0) break;  // woken for shutdown or listener error
    reap_finished_sessions();
    // Admission control: reject beyond max_sessions with an explicit
    // retry hint rather than queueing unbounded connections.
    std::uint32_t active = active_sessions_.load();
    bool admitted = false;
    while (active < cfg_.max_sessions) {
      if (active_sessions_.compare_exchange_weak(active, active + 1)) {
        admitted = true;
        break;
      }
    }
    if (!admitted) {
      busy_rejections_.fetch_add(1);
      ByteVec payload;
      append_le(payload, cfg_.retry_after_ms);
      try {
        write_frame(fd, MsgType::kBusy, ByteSpan{payload});
      } catch (const ProtocolError&) {
      }
      drain_rejected(fd);
      ::close(fd);
      continue;
    }
    // Chaos interposition happens before any socket tuning so the
    // timeout below lands on the fd the session actually reads from
    // (the proxy's socketpair end when the plan selects this conn).
    const std::uint64_t conn_index = accepted_conns_.fetch_add(1) + 1;
    if (!net_fault_plan_.empty()) {
      fd = wrap_with_net_faults(fd, net_fault_plan_, conn_index);
    }
    // A stalled peer must not pin a session slot (and with it the shared
    // maintenance lock) forever.
    if (cfg_.idle_timeout_ms != 0) {
      timeval tv{};
      tv.tv_sec = cfg_.idle_timeout_ms / 1000;
      tv.tv_usec = static_cast<suseconds_t>(cfg_.idle_timeout_ms % 1000) *
                   1000;
      ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    auto slot = std::make_unique<SessionSlot>();
    slot->fd = fd;
    SessionSlot* raw_slot = slot.get();
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      sessions_.push_back(std::move(slot));
    }
    raw_slot->thread = std::thread([this, raw_slot] {
      serve_connection(*raw_slot);
      ::close(raw_slot->fd);
      active_sessions_.fetch_sub(1);
      sessions_served_.fetch_add(1);
      raw_slot->done.store(true);
    });
  }
}

void DedupDaemon::serve_connection(SessionSlot& slot) {
  const int fd = slot.fd;
  tune_stream_socket(fd);
  // The reader owns the connection's read side for its whole life; every
  // handler that consumes frames (the PUT data path) goes through it.
  FrameReader reader(fd);
  // GET staging buffer, sized on the connection's first GET and reused by
  // the rest.
  ByteVec get_buf;
  try {
    Frame frame;
    while (reader.read_frame(frame)) {
      switch (frame.type) {
        case MsgType::kPing: {
          std::shared_lock<std::shared_mutex> maint(maint_mu_);
          write_frame(fd, MsgType::kOk, std::string("pong"));
          break;
        }
        case MsgType::kStats: {
          std::shared_lock<std::shared_mutex> maint(maint_mu_);
          // A 1-byte payload of 0x01 atomically resets the latency
          // histograms with the snapshot (bench phase boundaries).
          const bool reset =
              frame.payload.size() == 1 && frame.payload[0] == Byte{1};
          write_frame(fd, MsgType::kOk,
                      reset ? stats_json_and_reset() : stats_json());
          break;
        }
        case MsgType::kPutBegin: {
          std::shared_lock<std::shared_mutex> maint(maint_mu_);
          if (!handle_put(fd, reader, ByteSpan{frame.payload})) return;
          break;
        }
        case MsgType::kGet: {
          std::shared_lock<std::shared_mutex> maint(maint_mu_);
          handle_get(fd, ByteSpan{frame.payload}, get_buf);
          break;
        }
        case MsgType::kLs: {
          std::shared_lock<std::shared_mutex> maint(maint_mu_);
          handle_ls(fd, ByteSpan{frame.payload});
          break;
        }
        case MsgType::kMaintain:
          // Takes maint_mu_ exclusively itself — must not hold it shared.
          handle_maintain(fd, ByteSpan{frame.payload});
          break;
        default:
          protocol_errors_.fetch_add(1);
          write_frame(fd, MsgType::kErr, std::string("unexpected frame"));
          return;  // protocol state lost; drop the connection
      }
    }
    // Typed and counted per cause (most-derived first — both subclasses
    // ARE ProtocolErrors). This was one silent catch before: a hostile
    // malformed peer, a client killed mid-PUT, and a slowloris reaped by
    // the receive timeout were indistinguishable in every stats view.
  } catch (const IdleTimeoutError&) {
    idle_timeout_reaps_.fetch_add(1);
  } catch (const PeerDisconnectedError&) {
    peer_disconnects_.fetch_add(1);
  } catch (const ProtocolError&) {
    protocol_errors_.fetch_add(1);
  } catch (const std::exception& e) {
    try {
      write_frame(fd, MsgType::kErr, std::string(e.what()));
    } catch (const ProtocolError&) {
    }
  }
}

DedupDaemon::TenantState& DedupDaemon::tenant(const std::string& id) {
  std::lock_guard<std::mutex> lock(reg_mu_);
  auto& slot = tenants_[id];
  if (!slot) slot = std::make_unique<TenantState>();
  return *slot;
}

void DedupDaemon::seed_tenant(const std::string& id, TenantState& ts) {
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    if (ts.seeded) return;
  }
  // Repository scan outside the registry lock (it reads objects).
  TenantView view(sync_, id);
  const auto files = scan_tenant_files(view);
  std::uint64_t bytes = 0;
  for (const auto& f : files) bytes += f.bytes;
  std::lock_guard<std::mutex> lock(reg_mu_);
  if (ts.seeded) return;
  ts.seeded = true;
  ts.files = files.size();
  ts.logical_bytes = bytes;
}

bool DedupDaemon::handle_put(int fd, FrameReader& reader, ByteSpan payload) {
  const auto start = Clock::now();
  std::size_t pos = 0;
  const auto tenant_id = read_string(payload, pos);
  const auto file_name = read_string(payload, pos);
  if (!tenant_id || !file_name || file_name->empty()) {
    throw ProtocolError("malformed PutBegin");
  }
  if (const auto reason = validate_tenant(*tenant_id)) {
    write_frame(fd, MsgType::kErr, *reason);
    drain_rejected(fd);
    throw ProtocolError("invalid tenant id");  // drop: data frames follow
  }

  TenantState& ts = tenant(*tenant_id);
  // One writer per tenant namespace; cross-tenant PUTs stay concurrent.
  std::lock_guard<std::mutex> writer(ts.write_mu);
  seed_tenant(*tenant_id, ts);

  std::uint64_t base_bytes = 0, base_files = 0;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    base_bytes = ts.logical_bytes;
    base_files = ts.files;
  }
  // A quota rejection is counted while the writer lock is held, answered
  // with a Quota frame, and ends the connection (the client's data frames
  // follow); it is the tenant's limit, not a protocol error.
  const auto& quota = cfg_.quota;
  if (quota.max_files != 0 && base_files + 1 > quota.max_files) {
    std::lock_guard<std::mutex> lock(reg_mu_);
    ++ts.counters.quota_rejections;
    write_frame(fd, MsgType::kQuota,
                "file count limit " + std::to_string(quota.max_files) +
                    " reached");
    drain_rejected(fd);
    return false;
  }

  // Remaining byte budget for this PUT (base + streamed > max aborts).
  const std::uint64_t budget =
      quota.max_logical_bytes == 0
          ? SocketFrameSource::kUnlimited
          : (quota.max_logical_bytes > base_bytes
                 ? quota.max_logical_bytes - base_bytes
                 : 0);
  SocketFrameSource src(reader, *tenant_id, budget);

  // The engine consumes the socket inline. Any exception invalidates the
  // warm session (a half-ingested engine's cache/bloom state is no longer
  // derivable from disk) — the next PUT rebuilds it fresh, which is
  // exactly the baseline's behavior over the same on-disk state. The warm
  // session is (re)built INSIDE the try: booting the engine stack reads
  // hooks and index objects, so construction can hit the same transient
  // store faults as ingest itself and must take the same Retry path.
  EngineCounters before, after;
  std::uint64_t retries_before = 0;
  std::uint64_t put_transient_retries = 0;
  std::uint64_t sampled_champs = 0, sampled_missed = 0, sampled_hooks = 0;
  try {
    if (!ts.session) {
      ts.session =
          std::make_unique<EngineSession>(sync_, *tenant_id, cfg_.engine);
    }
    EngineSession& sess = *ts.session;
    before = sess.engine.counters();
    retries_before = sess.store.stats().transient_retries;
    // The sampled tier's counters are cumulative (persisted across engine
    // rebuilds), so the per-PUT contribution is a delta like the engine's;
    // mem/disk indexes report zeros.
    const FingerprintIndex& fp = *sess.engine.fingerprint_index();
    const SampledStats sampled_before = fp.sampled_stats();
    sess.engine.add_file(*file_name, src);
    after = sess.engine.counters();
    put_transient_retries =
        sess.store.stats().transient_retries - retries_before;
    const SampledStats sampled_after = fp.sampled_stats();
    sampled_champs =
        sampled_after.champion_loads - sampled_before.champion_loads;
    sampled_missed =
        sampled_after.missed_dup_bytes - sampled_before.missed_dup_bytes;
    sampled_hooks = sampled_after.hook_entries;
    sess.engine.flush_session();
  } catch (const QuotaExceededError&) {
    ts.session.reset();
    std::lock_guard<std::mutex> lock(reg_mu_);
    ++ts.counters.quota_rejections;
    write_frame(fd, MsgType::kQuota,
                "logical byte limit " +
                    std::to_string(quota.max_logical_bytes) + " exceeded");
    // Partially written chunks are unreferenced garbage; the next gc
    // maintenance pass reclaims them.
    drain_rejected(fd);
    return false;
  } catch (const TransientReadError& e) {
    // Store retries exhausted — a RETRYABLE failure, not a connection
    // death. The warm session is poisoned (half-ingested cache state) and
    // dropped; partially written chunks are unreferenced garbage for the
    // next gc, exactly like the quota abort. But unlike quota the
    // CONNECTION is fine: drain the rest of the PUT stream to stay
    // frame-aligned and answer Retry — the client re-sends the same PUT
    // against a freshly rebuilt session.
    const std::uint64_t burned =
        ts.session
            ? ts.session->store.stats().transient_retries - retries_before
            : 0;
    ts.session.reset();
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      ++ts.counters.retryable_errors;
      ts.counters.transient_retries += burned;
    }
    retryable_errors_.fetch_add(1);
    transient_retries_.fetch_add(burned);
    if (!src.ended()) drain_put_stream(reader);
    ByteVec retry;
    append_le(retry, cfg_.retry_after_ms);
    const std::string reason = e.what();
    retry.insert(retry.end(),
                 reinterpret_cast<const Byte*>(reason.data()),
                 reinterpret_cast<const Byte*>(reason.data()) +
                     reason.size());
    write_frame(fd, MsgType::kRetry, ByteSpan{retry});
    return true;
  } catch (const IdleTimeoutError&) {
    ts.session.reset();
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      ++ts.counters.idle_timeout_reaps;
    }
    idle_timeout_reaps_.fetch_add(1);
    return false;
  } catch (const PeerDisconnectedError&) {
    ts.session.reset();
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      ++ts.counters.peer_disconnects;
    }
    peer_disconnects_.fetch_add(1);
    return false;
  } catch (const ProtocolError&) {
    ts.session.reset();
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      ++ts.counters.protocol_errors;
    }
    protocol_errors_.fetch_add(1);
    return false;
  } catch (const std::exception& e) {
    ts.session.reset();
    write_frame(fd, MsgType::kErr, std::string(e.what()));
    return true;  // stray PutData frames will end the serve loop
  }

  const std::uint64_t input_bytes = after.input_bytes - before.input_bytes;
  const std::uint64_t dup_bytes = after.dup_bytes - before.dup_bytes;

  const std::uint64_t us = elapsed_us(start);
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    ts.files += 1;
    ts.logical_bytes += input_bytes;
    ++ts.counters.puts;
    ts.counters.files = ts.files;
    ts.counters.logical_bytes = ts.logical_bytes;
    ts.counters.ingest_bytes += input_bytes;
    ts.counters.dup_bytes += dup_bytes;
    ts.counters.queue_high_water = std::max<std::uint64_t>(
        ts.counters.queue_high_water, reader.buffer_high_water());
    ts.counters.transient_retries += put_transient_retries;
    ts.counters.champion_loads += sampled_champs;
    ts.counters.sampled_missed_dup_bytes += sampled_missed;
    ts.counters.sampled_hook_entries = sampled_hooks;
    ts.put_us.record(us);
  }
  if (put_transient_retries != 0) {
    transient_retries_.fetch_add(put_transient_retries);
  }
  std::string summary = "{\"file\":\"" + json_escape(*file_name) +
                        "\",\"input_bytes\":" + std::to_string(input_bytes) +
                        ",\"dup_bytes\":" + std::to_string(dup_bytes) +
                        ",\"micros\":" + std::to_string(us) + "}";
  write_frame(fd, MsgType::kOk, summary);
  return true;
}

void DedupDaemon::handle_get(int fd, ByteSpan payload, ByteVec& buf) {
  const auto start = Clock::now();
  std::size_t pos = 0;
  const auto tenant_id = read_string(payload, pos);
  const auto file_name = read_string(payload, pos);
  if (!tenant_id || !file_name) throw ProtocolError("malformed Get");
  if (const auto reason = validate_tenant(*tenant_id)) {
    write_frame(fd, MsgType::kErr, *reason);
    return;
  }

  // Restores need no engine and no tenant write lock: RestoreReader is a
  // read-only stream over the tenant view, safe concurrently with
  // everything (the synchronized stack linearizes the object reads).
  TenantView view(sync_, *tenant_id);
  TenantState& ts = tenant(*tenant_id);
  std::uint64_t sent_bytes = 0;
  std::uint64_t produced = 0;
  std::uint64_t get_retries = 0;
  bool stream_ok = false;
  try {
    auto reader = RestoreReader::open(view, *file_name);
    if (!reader) {
      write_frame(fd, MsgType::kErr, "no such file in tenant '" +
                                         *tenant_id + "': " + *file_name);
      // Failed GETs get their own histogram — a fast "no such file" must
      // not drag the success percentiles down.
      std::lock_guard<std::mutex> lock(reg_mu_);
      ++ts.counters.get_errors;
      ts.get_err_us.record(elapsed_us(start));
      return;
    }
    buf.resize(kStreamFrameBytes);
    std::size_t n;
    while ((n = reader->read({buf.data(), buf.size()})) > 0) {
      write_frame(fd, MsgType::kData, ByteSpan{buf.data(), n});
      sent_bytes += n;
    }
    produced = reader->produced();
    get_retries = reader->transient_retries();
    stream_ok = reader->ok();
  } catch (const TransientReadError& e) {
    // Store retries exhausted mid-restore. Before any Data frame has
    // left, the whole GET is retryable: answer Retry and keep the
    // connection (the client re-requests against a hopefully-recovered
    // backend). Mid-stream the delivered prefix cannot be recalled, so
    // end the stream honestly with ok=0 — the existing "short stream,
    // never wrong bytes" contract.
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      ++ts.counters.retryable_errors;
      ++ts.counters.get_errors;
      ts.get_err_us.record(elapsed_us(start));
    }
    retryable_errors_.fetch_add(1);
    if (sent_bytes == 0) {
      ByteVec retry;
      append_le(retry, cfg_.retry_after_ms);
      const std::string reason = e.what();
      retry.insert(retry.end(),
                   reinterpret_cast<const Byte*>(reason.data()),
                   reinterpret_cast<const Byte*>(reason.data()) +
                       reason.size());
      write_frame(fd, MsgType::kRetry, ByteSpan{retry});
    } else {
      ByteVec tail;
      append_le(tail, sent_bytes);
      tail.push_back(Byte{0});
      write_frame(fd, MsgType::kDataEnd, ByteSpan{tail});
    }
    return;
  }
  ByteVec tail;
  append_le(tail, produced);
  tail.push_back(stream_ok ? Byte{1} : Byte{0});
  write_frame(fd, MsgType::kDataEnd, ByteSpan{tail});

  if (get_retries != 0) transient_retries_.fetch_add(get_retries);
  std::lock_guard<std::mutex> lock(reg_mu_);
  ++ts.counters.gets;
  ts.counters.restore_bytes += produced;
  ts.counters.transient_retries += get_retries;
  // A stream that ended short (damaged objects) is a failure: record it
  // apart from the successes even though DataEnd was delivered.
  if (stream_ok) {
    ts.get_us.record(elapsed_us(start));
  } else {
    ++ts.counters.get_errors;
    ts.get_err_us.record(elapsed_us(start));
  }
}

void DedupDaemon::handle_ls(int fd, ByteSpan payload) {
  std::size_t pos = 0;
  const auto tenant_id = read_string(payload, pos);
  if (!tenant_id) throw ProtocolError("malformed Ls");
  if (const auto reason = validate_tenant(*tenant_id)) {
    write_frame(fd, MsgType::kErr, *reason);
    return;
  }
  TenantView view(sync_, *tenant_id);
  std::string json = "[";
  bool first = true;
  for (const auto& f : scan_tenant_files(view)) {
    if (!first) json += ",";
    first = false;
    json += "{\"name\":\"" + json_escape(f.name) +
            "\",\"bytes\":" + std::to_string(f.bytes) + "}";
  }
  json += "]";
  write_frame(fd, MsgType::kOk, json);
}

void DedupDaemon::handle_maintain(int fd, ByteSpan payload) {
  if (payload.size() != 1) throw ProtocolError("malformed Maintain");
  const auto op = static_cast<MaintainOp>(payload[0]);
  // Quiesce: wait for in-flight requests to drain, hold off new ones.
  // Every PUT ends with flush_session(), so the quiesced store is fully
  // durable; the warm engine sessions are then dropped because gc/fsck
  // rewrite the hooks, manifests and index objects beneath them — the
  // next PUT rebuilds from the post-maintenance disk state.
  std::unique_lock<std::shared_mutex> maint(maint_mu_);
  drop_engine_sessions();
  maintenance_runs_.fetch_add(1);
  // Maintenance walks the repository one scope at a time (list_scopes):
  // hooks, manifests and index objects reference each other by bare names
  // within a tenant's scope. gc sweeps no containers here: that needs the
  // ContainerBackend itself, so it stays an offline `dedup_cli gc`.
  const std::string tenants = std::to_string(list_scopes(sync_).size() - 1);
  if (op == MaintainOp::kGc) {
    const GcReport r = collect_garbage(sync_);
    write_frame(
        fd, MsgType::kOk,
        "{\"op\":\"gc\",\"tenants\":" + tenants +
            ",\"live_chunks\":" + std::to_string(r.live_chunks) +
            ",\"deleted_chunks\":" + std::to_string(r.deleted_chunks) +
            ",\"reclaimed_bytes\":" + std::to_string(r.reclaimed_bytes) +
            "}");
    return;
  }
  if (op == MaintainOp::kFsck) {
    // Read-only. The stack's reads verify themselves, so the check takes
    // its bytes as plain; repairing fsck stays an offline fsck_cli run.
    const FsckReport r =
        fsck_repository(sync_, /*repair=*/false, {}, /*framed=*/false);
    write_frame(
        fd, MsgType::kOk,
        std::string("{\"op\":\"fsck\",\"tenants\":") + tenants +
            ",\"clean\":" + (r.clean() ? "true" : "false") +
            ",\"objects\":" + std::to_string(r.objects) +
            ",\"corrupt_objects\":" + std::to_string(r.corrupt) +
            ",\"broken_refs\":" + std::to_string(r.broken_refs) +
            ",\"hash_mismatches\":" + std::to_string(r.hash_mismatches) +
            ",\"dangling_hooks\":" + std::to_string(r.dangling_hooks) +
            ",\"index_issues\":" + std::to_string(r.index_issues) + "}");
    return;
  }
  write_frame(fd, MsgType::kErr, std::string("unknown maintenance op"));
}

std::string DedupDaemon::stats_json() const {
  return build_stats_json(/*reset_histograms=*/false);
}

std::string DedupDaemon::stats_json_and_reset() {
  return build_stats_json(/*reset_histograms=*/true);
}

std::string DedupDaemon::build_stats_json(bool reset_histograms) const {
  // One reg_mu_ hold for the whole snapshot (and the optional reset): a
  // reader either sees every sample of a PUT/GET or none of it, and a
  // reset can never lose a sample recorded between snapshot and zeroing.
  std::lock_guard<std::mutex> lock(reg_mu_);
  std::string json = "{";
  json += "\"active_sessions\":" + std::to_string(active_sessions_.load());
  json += ",\"sessions_served\":" + std::to_string(sessions_served_.load());
  json += ",\"busy_rejections\":" + std::to_string(busy_rejections_.load());
  json += ",\"maintenance_runs\":" + std::to_string(maintenance_runs_.load());
  json += ",\"max_sessions\":" + std::to_string(cfg_.max_sessions);
  // Resolved per-tenant engine routing (stickiness already applied by the
  // caller's config), so clients can see which index tier serves them.
  json += std::string(",\"index_impl\":\"") +
          (cfg_.engine.index_impl == IndexImpl::kDisk      ? "disk"
           : cfg_.engine.index_impl == IndexImpl::kSampled ? "sampled"
                                                           : "mem") +
          "\"";
  if (cfg_.engine.index_impl == IndexImpl::kSampled) {
    json += ",\"sample_bits\":" + std::to_string(cfg_.engine.sample_bits);
  }
  json += ",\"protocol_errors\":" + std::to_string(protocol_errors_.load());
  json +=
      ",\"peer_disconnects\":" + std::to_string(peer_disconnects_.load());
  json += ",\"idle_timeout_reaps\":" +
          std::to_string(idle_timeout_reaps_.load());
  json += ",\"transient_retries\":" +
          std::to_string(transient_retries_.load());
  json +=
      ",\"retryable_errors\":" + std::to_string(retryable_errors_.load());
  json += ",\"tenants\":{";
  bool first = true;
  for (const auto& [id, ts] : tenants_) {
    if (!first) json += ",";
    first = false;
    const auto& c = ts->counters;
    json += "\"" + json_escape(id) + "\":{";
    json += "\"puts\":" + std::to_string(c.puts);
    json += ",\"gets\":" + std::to_string(c.gets);
    json += ",\"files\":" + std::to_string(ts->files);
    json += ",\"logical_bytes\":" + std::to_string(ts->logical_bytes);
    json += ",\"ingest_bytes\":" + std::to_string(c.ingest_bytes);
    json += ",\"restore_bytes\":" + std::to_string(c.restore_bytes);
    json += ",\"dup_bytes\":" + std::to_string(c.dup_bytes);
    json += ",\"queue_high_water\":" + std::to_string(c.queue_high_water);
    json += ",\"quota_rejections\":" + std::to_string(c.quota_rejections);
    json += ",\"get_errors\":" + std::to_string(c.get_errors);
    json += ",\"protocol_errors\":" + std::to_string(c.protocol_errors);
    json += ",\"peer_disconnects\":" + std::to_string(c.peer_disconnects);
    json += ",\"idle_timeout_reaps\":" +
            std::to_string(c.idle_timeout_reaps);
    json += ",\"transient_retries\":" +
            std::to_string(c.transient_retries);
    json += ",\"retryable_errors\":" + std::to_string(c.retryable_errors);
    json += ",\"champion_loads\":" + std::to_string(c.champion_loads);
    json += ",\"sampled_missed_dup_bytes\":" +
            std::to_string(c.sampled_missed_dup_bytes);
    json += ",\"sampled_hook_entries\":" +
            std::to_string(c.sampled_hook_entries);
    json += ",\"put_p50_us\":" + std::to_string(ts->put_us.quantile(0.5));
    json += ",\"put_p99_us\":" + std::to_string(ts->put_us.quantile(0.99));
    json += ",\"get_p50_us\":" + std::to_string(ts->get_us.quantile(0.5));
    json += ",\"get_p99_us\":" + std::to_string(ts->get_us.quantile(0.99));
    json += ",\"get_err_p99_us\":" +
            std::to_string(ts->get_err_us.quantile(0.99));
    json += "}";
    if (reset_histograms) {
      // unique_ptr's shallow const lets the snapshot-and-reset flavour
      // share this builder; reg_mu_ serializes it against recorders.
      ts->put_us.reset();
      ts->get_us.reset();
      ts->get_err_us.reset();
    }
  }
  json += "}}";
  return json;
}

}  // namespace mhd::server
