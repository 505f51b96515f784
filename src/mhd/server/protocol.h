// Wire protocol of the multi-tenant dedup daemon.
//
// Transport: a byte stream (local TCP or a Unix socket). Every message is
// one length-prefixed frame:
//
//   [u32 payload_len (LE)] [u8 type] [payload_len bytes]
//
// The length covers the payload only, not the type byte, and is capped at
// kMaxFramePayload — a malformed peer can never make the daemon allocate
// unbounded memory. Strings inside payloads are [u16 len][bytes].
//
// Conversations are strict request/response per connection:
//
//   PUT:  PutBegin(tenant, name) → PutData* → PutEnd
//         ← Ok(summary json) | Err | Quota | Busy
//   GET:  Get(tenant, name) ← Data* ← DataEnd(total, ok) | Err | Busy
//   LS:   Ls(tenant) ← Ok(json array) | Err
//   STATS: Stats ← Ok(json object)
//   MAINTAIN: Maintain(op) ← Ok(json) | Err | Busy   (op: gc | fsck)
//   PING: Ping ← Ok("pong")
//
// Backpressure has two layers: admission (a daemon at max-sessions answers
// the first request frame with Busy(retry_after_ms) and closes) and
// streaming (the dedup engine consumes PutData payload bytes straight off
// the connection on the session thread; when it falls behind, reads stop
// and TCP/Unix flow control pushes back to the client).
//
// Tenant ids are validated at this boundary (validate_tenant): they become
// object-name prefixes in the store, so path separators, dots and empties
// are rejected before they can touch a filename.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>

#include "mhd/util/bytes.h"

namespace mhd::server {

/// Hard cap on a single frame's payload (daemon-side allocation bound).
constexpr std::uint32_t kMaxFramePayload = 8u << 20;

/// Preferred PutData/Data frame size for streaming (well under the cap).
/// Large frames amortize the per-frame header + syscall cost: at 1 MB a
/// stream pays ~2 syscalls per MB on each side instead of dozens.
constexpr std::uint32_t kStreamFrameBytes = 1u << 20;

/// FrameReader's coalescing buffer: small frames (headers, control
/// messages, short payloads) are parsed out of one buffered read() instead
/// of costing two exact-size reads each.
constexpr std::size_t kReadBufferBytes = 256u << 10;

/// SO_SNDBUF/SO_RCVBUF hint applied to every stream socket.
constexpr int kSocketBufferBytes = 1 << 20;

enum class MsgType : std::uint8_t {
  // requests
  kPutBegin = 0x01,
  kPutData = 0x02,
  kPutEnd = 0x03,
  kGet = 0x04,
  kLs = 0x05,
  kStats = 0x06,
  kMaintain = 0x07,  ///< payload: u8 op (1 = gc, 2 = fsck)
  kPing = 0x08,
  // responses
  kOk = 0x40,       ///< payload: UTF-8 text (JSON where structured)
  kData = 0x41,     ///< restore bytes
  kDataEnd = 0x42,  ///< u64 total, u8 ok
  kErr = 0x43,      ///< human-readable error
  kBusy = 0x44,     ///< u32 retry_after_ms — admission backpressure
  kQuota = 0x45,    ///< tenant quota exceeded; payload names the limit
  /// Retryable failure: the request hit a transient condition (store read
  /// retries exhausted, backend hiccup). The tenant session was dropped
  /// and rebuilt cleanly; the CONNECTION stays usable and the same
  /// request, re-sent, is expected to succeed. Payload: u32 retry_after_ms
  /// followed by a human-readable reason.
  kRetry = 0x46,
};

enum class MaintainOp : std::uint8_t { kGc = 1, kFsck = 2 };

struct Frame {
  MsgType type = MsgType::kErr;
  ByteVec payload;
};

/// Tenant ids become object-name prefixes (`<tenant>.<name>`), so the
/// alphabet is restricted to [A-Za-z0-9_-], length 1..64. Returns the
/// rejection reason, or nullopt when valid.
std::optional<std::string> validate_tenant(const std::string& tenant);

/// Blocking exact-size frame writes on a connected socket (reads go
/// through FrameReader). write_frame throws on a broken pipe and sends
/// header and payload as ONE vectored syscall (sendmsg with MSG_NOSIGNAL).
void write_frame(int fd, MsgType type, ByteSpan payload);
void write_frame(int fd, MsgType type, const std::string& text);

/// Transport tuning for a connected stream socket: TCP_NODELAY (the
/// request/response protocol must never sit out a Nagle/delayed-ACK
/// window — that alone was a ~40 ms stall per RPC) and larger kernel
/// buffers. A no-op where an option does not apply (Unix sockets).
void tune_stream_socket(int fd);

/// Process-wide transport counters (bench attribution: bytes-per-syscall).
/// Monotonic; covers every FrameReader read and write_frame send in the
/// process. reset_transport_stats() zeroes them between bench phases.
struct TransportStats {
  std::uint64_t read_calls = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t write_calls = 0;
  std::uint64_t write_bytes = 0;
};
TransportStats transport_stats();
void reset_transport_stats();

/// Buffered frame reads over one connected socket. A FrameReader owns the
/// read side of its fd: it issues large read()s into a coalescing buffer
/// and parses frames out of it, so a run of small frames costs one
/// syscall, not two each. Payloads larger than the buffer are read
/// straight into the caller's memory (no double buffering). Once a
/// FrameReader is attached to an fd, every read on that fd must go
/// through it (it over-reads by design).
///
/// Two access styles:
///  * read_frame(Frame&): whole frames (false on clean EOF at a frame
///    boundary, ProtocolError on tears/oversize);
///  * next_header() + read_payload(): streaming consumption — the PUT
///    data path pulls payload bytes directly into the chunker's buffer
///    without materializing a frame.
class FrameReader {
 public:
  explicit FrameReader(int fd, std::size_t buffer_bytes = kReadBufferBytes);

  FrameReader(const FrameReader&) = delete;
  FrameReader& operator=(const FrameReader&) = delete;

  /// Reads one whole frame. False on clean EOF at a frame boundary.
  bool read_frame(Frame& out);

  /// Reads the next frame header. False on clean EOF at a frame boundary.
  /// Must not be called while the previous frame's payload is unconsumed.
  bool next_header(MsgType& type, std::uint32_t& len);

  /// Consumes up to out.size() bytes of the current frame's payload;
  /// returns the count (0 when the payload is fully consumed).
  std::size_t read_payload(MutByteSpan out);

  std::uint32_t payload_remaining() const { return remaining_; }

  /// High-water of bytes held in the coalescing buffer (observability:
  /// the stats RPC reports it as the session's buffered high-water).
  std::size_t buffer_high_water() const { return high_water_; }

 private:
  /// Ensures at least `need` buffered bytes. Returns false on clean EOF
  /// with an empty buffer; throws ProtocolError on EOF mid-datum.
  bool fill(std::size_t need);

  int fd_;
  ByteVec buf_;
  std::size_t pos_ = 0;   ///< next unconsumed byte
  std::size_t end_ = 0;   ///< one past the last buffered byte
  std::uint32_t remaining_ = 0;  ///< unconsumed payload of the open frame
  std::size_t high_water_ = 0;
};

/// Payload helpers ([u16 len][bytes] strings).
void append_string(ByteVec& out, const std::string& s);
std::optional<std::string> read_string(ByteSpan payload, std::size_t& pos);

/// Malformed frame / handshake violation.
class ProtocolError : public std::runtime_error {
 public:
  explicit ProtocolError(const std::string& what) : std::runtime_error(what) {}
};

/// The peer went away (EPIPE/ECONNRESET on either direction, or EOF in
/// the middle of a frame — a client killed mid-PUT looks exactly like
/// this). A subclass of ProtocolError so every existing "drop the
/// connection" catch still works, but typed so the daemon can count
/// benign disconnects apart from hostile malformed peers.
class PeerDisconnectedError : public ProtocolError {
 public:
  explicit PeerDisconnectedError(const std::string& what)
      : ProtocolError(what) {}
};

/// A blocking read sat past the socket's SO_RCVTIMEO (slowloris / stalled
/// peer). The daemon reaps the connection and frees its admission slot.
class IdleTimeoutError : public ProtocolError {
 public:
  explicit IdleTimeoutError(const std::string& what) : ProtocolError(what) {}
};

/// Listening socket bound from a spec: "unix:<path>" or "tcp:<port>"
/// (loopback only; port 0 picks an ephemeral port, see port()). accept()
/// blocks until a connection arrives or wake() is called from another
/// thread (returns -1 then, and after close()).
class Listener {
 public:
  Listener() = default;
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  /// Throws std::runtime_error on bind failure (port in use, bad spec).
  void listen(const std::string& spec);
  int accept();
  void wake();
  void close();

  /// Bound TCP port (0 for Unix sockets) — lets tests listen on tcp:0.
  int port() const { return port_; }
  const std::string& spec() const { return spec_; }

 private:
  int fd_ = -1;
  int wake_r_ = -1;
  int wake_w_ = -1;
  int port_ = 0;
  std::string spec_;
  std::string unix_path_;  ///< unlinked on close
};

/// Connects to a listener spec; returns -1 on failure.
int connect_to(const std::string& spec);

}  // namespace mhd::server
