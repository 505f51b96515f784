#include "mhd/server/protocol.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace mhd::server {

namespace {

std::atomic<std::uint64_t> g_read_calls{0};
std::atomic<std::uint64_t> g_read_bytes{0};
std::atomic<std::uint64_t> g_write_calls{0};
std::atomic<std::uint64_t> g_write_bytes{0};

ssize_t counted_read(int fd, void* buf, std::size_t len) {
  const ssize_t n = ::read(fd, buf, len);
  g_read_calls.fetch_add(1, std::memory_order_relaxed);
  if (n > 0) {
    g_read_bytes.fetch_add(static_cast<std::uint64_t>(n),
                           std::memory_order_relaxed);
  }
  return n;
}

/// Maps a failed read()'s errno to the typed error vocabulary: a stalled
/// peer (SO_RCVTIMEO expiry) and a vanished peer are different events and
/// the daemon counts them separately.
[[noreturn]] void throw_read_error(int err) {
  if (err == EAGAIN || err == EWOULDBLOCK) {
    throw IdleTimeoutError("connection idle past receive timeout");
  }
  if (err == ECONNRESET || err == EPIPE) {
    throw PeerDisconnectedError(std::string("peer reset: ") +
                                std::strerror(err));
  }
  throw ProtocolError(std::string("read: ") + std::strerror(err));
}

/// Vectored exact write: header + payload leave in one sendmsg. Partial
/// sends advance through the iovec array. MSG_NOSIGNAL: a peer that
/// vanished mid-write must surface as EPIPE, not kill the daemon with
/// SIGPIPE.
void writev_exact(int fd, iovec* iov, int iovcnt) {
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    g_write_calls.fetch_add(1, std::memory_order_relaxed);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) {
        // The peer vanished while we were answering it — benign from the
        // daemon's point of view, and counted apart from protocol abuse.
        throw PeerDisconnectedError(std::string("peer gone on write: ") +
                                    std::strerror(errno));
      }
      throw ProtocolError(std::string("write: ") + std::strerror(errno));
    }
    g_write_bytes.fetch_add(static_cast<std::uint64_t>(n),
                            std::memory_order_relaxed);
    std::size_t advanced = static_cast<std::size_t>(n);
    while (iovcnt > 0 && advanced >= iov->iov_len) {
      advanced -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {
      iov->iov_base = static_cast<unsigned char*>(iov->iov_base) + advanced;
      iov->iov_len -= advanced;
    }
  }
}

}  // namespace

TransportStats transport_stats() {
  TransportStats s;
  s.read_calls = g_read_calls.load(std::memory_order_relaxed);
  s.read_bytes = g_read_bytes.load(std::memory_order_relaxed);
  s.write_calls = g_write_calls.load(std::memory_order_relaxed);
  s.write_bytes = g_write_bytes.load(std::memory_order_relaxed);
  return s;
}

void reset_transport_stats() {
  g_read_calls.store(0, std::memory_order_relaxed);
  g_read_bytes.store(0, std::memory_order_relaxed);
  g_write_calls.store(0, std::memory_order_relaxed);
  g_write_bytes.store(0, std::memory_order_relaxed);
}

void tune_stream_socket(int fd) {
  const int one = 1;
  // Fails with ENOTSUP/EOPNOTSUPP on Unix sockets — fine, they have no
  // Nagle to disable.
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  const int buf = kSocketBufferBytes;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof(buf));
}

std::optional<std::string> validate_tenant(const std::string& tenant) {
  if (tenant.empty()) return "tenant id is empty";
  if (tenant.size() > 64) return "tenant id longer than 64 chars";
  for (const char c : tenant) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '-';
    if (!ok) {
      // '/' '\\' '.' and friends would leak into object/file names.
      return std::string("tenant id contains forbidden character '") + c +
             "' (allowed: [A-Za-z0-9_-])";
    }
  }
  return std::nullopt;
}

void write_frame(int fd, MsgType type, ByteSpan payload) {
  if (payload.size() > kMaxFramePayload) {
    throw ProtocolError("attempted to write an oversized frame");
  }
  const auto len = static_cast<std::uint32_t>(payload.size());
  unsigned char header[5] = {
      static_cast<unsigned char>(len & 0xff),
      static_cast<unsigned char>((len >> 8) & 0xff),
      static_cast<unsigned char>((len >> 16) & 0xff),
      static_cast<unsigned char>((len >> 24) & 0xff),
      static_cast<unsigned char>(type),
  };
  iovec iov[2];
  iov[0].iov_base = header;
  iov[0].iov_len = sizeof(header);
  int iovcnt = 1;
  if (len != 0) {
    iov[1].iov_base = const_cast<Byte*>(payload.data());
    iov[1].iov_len = payload.size();
    iovcnt = 2;
  }
  writev_exact(fd, iov, iovcnt);
}

void write_frame(int fd, MsgType type, const std::string& text) {
  write_frame(fd, type,
              ByteSpan{reinterpret_cast<const Byte*>(text.data()),
                       text.size()});
}

FrameReader::FrameReader(int fd, std::size_t buffer_bytes)
    : fd_(fd), buf_(buffer_bytes) {}

bool FrameReader::fill(std::size_t need) {
  const std::size_t have = end_ - pos_;
  if (have >= need) return true;
  // Compact so the tail of the buffer is free for one large read().
  if (pos_ != 0) {
    std::memmove(buf_.data(), buf_.data() + pos_, have);
    end_ = have;
    pos_ = 0;
  }
  while (end_ - pos_ < need) {
    const ssize_t n = counted_read(fd_, buf_.data() + end_, buf_.size() - end_);
    if (n == 0) {
      if (end_ == pos_) return false;  // clean EOF at a frame boundary
      throw PeerDisconnectedError("connection closed mid-frame");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      if (end_ == pos_ && (errno == ECONNRESET || errno == EPIPE)) {
        return false;
      }
      throw_read_error(errno);
    }
    end_ += static_cast<std::size_t>(n);
    if (end_ > high_water_) high_water_ = end_;
  }
  return true;
}

bool FrameReader::next_header(MsgType& type, std::uint32_t& len) {
  if (remaining_ != 0) {
    throw ProtocolError("frame header requested with payload unconsumed");
  }
  if (!fill(5)) return false;
  const Byte* h = buf_.data() + pos_;
  len = static_cast<std::uint32_t>(h[0]) |
        (static_cast<std::uint32_t>(h[1]) << 8) |
        (static_cast<std::uint32_t>(h[2]) << 16) |
        (static_cast<std::uint32_t>(h[3]) << 24);
  if (len > kMaxFramePayload) {
    throw ProtocolError("frame payload exceeds " +
                        std::to_string(kMaxFramePayload) + " bytes");
  }
  type = static_cast<MsgType>(h[4]);
  pos_ += 5;
  remaining_ = len;
  return true;
}

std::size_t FrameReader::read_payload(MutByteSpan out) {
  if (remaining_ == 0 || out.empty()) return 0;
  std::size_t want = out.size() < remaining_ ? out.size() : remaining_;
  std::size_t done = 0;
  // Drain whatever the coalescing buffer already holds.
  const std::size_t buffered = end_ - pos_;
  if (buffered != 0) {
    const std::size_t take = buffered < want ? buffered : want;
    std::memcpy(out.data(), buf_.data() + pos_, take);
    pos_ += take;
    done = take;
  }
  // Large remainders go straight into the caller's memory — no double
  // buffering for bulk payload bytes.
  while (done < want) {
    const ssize_t n = counted_read(fd_, out.data() + done, want - done);
    if (n == 0) throw PeerDisconnectedError("connection closed mid-frame");
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_read_error(errno);
    }
    done += static_cast<std::size_t>(n);
  }
  remaining_ -= static_cast<std::uint32_t>(done);
  return done;
}

bool FrameReader::read_frame(Frame& out) {
  MsgType type;
  std::uint32_t len;
  if (!next_header(type, len)) return false;
  out.type = type;
  out.payload.resize(len);
  std::size_t done = 0;
  while (done < len) {
    done += read_payload(
        MutByteSpan{out.payload.data() + done, len - done});
  }
  return true;
}

void append_string(ByteVec& out, const std::string& s) {
  const auto len = static_cast<std::uint16_t>(
      s.size() > 0xffff ? 0xffff : s.size());
  append_le(out, len);
  append(out, ByteSpan{reinterpret_cast<const Byte*>(s.data()), len});
}

std::optional<std::string> read_string(ByteSpan payload, std::size_t& pos) {
  if (pos + 2 > payload.size()) return std::nullopt;
  const auto len = load_le<std::uint16_t>(payload.data() + pos);
  pos += 2;
  if (pos + len > payload.size()) return std::nullopt;
  std::string s(reinterpret_cast<const char*>(payload.data() + pos), len);
  pos += len;
  return s;
}

Listener::~Listener() { close(); }

void Listener::listen(const std::string& spec) {
  spec_ = spec;
  int fd = -1;
  if (spec.rfind("unix:", 0) == 0) {
    const std::string path = spec.substr(5);
    if (path.size() + 1 > sizeof(sockaddr_un{}.sun_path)) {
      throw std::runtime_error("unix socket path too long: " + path);
    }
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    ::unlink(path.c_str());  // a previous daemon's leftover socket
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("bind " + path + ": " + std::strerror(err));
    }
    unix_path_ = path;
  } else if (spec.rfind("tcp:", 0) == 0) {
    const int port = std::atoi(spec.c_str() + 4);
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error("socket: " + std::string(std::strerror(errno)));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("bind tcp:" + std::to_string(port) + ": " +
                               std::strerror(err));
    }
    sockaddr_in bound{};
    socklen_t blen = sizeof(bound);
    ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen);
    port_ = ntohs(bound.sin_port);
  } else {
    throw std::runtime_error("listen spec must be unix:<path> or tcp:<port>: " +
                             spec);
  }
  if (::listen(fd, 64) < 0) {
    const int err = errno;
    ::close(fd);
    throw std::runtime_error("listen: " + std::string(std::strerror(err)));
  }
  int pipefd[2];
  if (::pipe(pipefd) < 0) {
    ::close(fd);
    throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
  }
  fd_ = fd;
  wake_r_ = pipefd[0];
  wake_w_ = pipefd[1];
}

int Listener::accept() {
  while (fd_ >= 0) {
    pollfd fds[2] = {{fd_, POLLIN, 0}, {wake_r_, POLLIN, 0}};
    const int n = ::poll(fds, 2, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (fds[1].revents != 0) return -1;  // woken for shutdown
    if (fds[0].revents != 0) {
      const int conn = ::accept(fd_, nullptr, nullptr);
      if (conn >= 0) return conn;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return -1;
    }
  }
  return -1;
}

void Listener::wake() {
  if (wake_w_ >= 0) {
    const char c = 'w';
    (void)!::write(wake_w_, &c, 1);
  }
}

void Listener::close() {
  if (fd_ >= 0) ::close(fd_);
  if (wake_r_ >= 0) ::close(wake_r_);
  if (wake_w_ >= 0) ::close(wake_w_);
  fd_ = wake_r_ = wake_w_ = -1;
  if (!unix_path_.empty()) {
    ::unlink(unix_path_.c_str());
    unix_path_.clear();
  }
}

int connect_to(const std::string& spec) {
  if (spec.rfind("unix:", 0) == 0) {
    const std::string path = spec.substr(5);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      return -1;
    }
    tune_stream_socket(fd);
    return fd;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    const int port = std::atoi(spec.c_str() + 4);
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      ::close(fd);
      return -1;
    }
    tune_stream_socket(fd);
    return fd;
  }
  return -1;
}

}  // namespace mhd::server
