// Wire-protocol satellites: tenant-id validation at the boundary, string
// and frame codecs, Listener/connect_to round trips over tcp:0 and unix
// sockets, and the oversized-frame allocation bound.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include "mhd/server/protocol.h"

namespace mhd::server {
namespace {

TEST(ValidateTenant, AcceptsPrefixSafeIds) {
  EXPECT_FALSE(validate_tenant("alice"));
  EXPECT_FALSE(validate_tenant("tenant-7"));
  EXPECT_FALSE(validate_tenant("A_b-C_0"));
  EXPECT_FALSE(validate_tenant("0"));
  EXPECT_FALSE(validate_tenant(std::string(64, 'x')));
}

TEST(ValidateTenant, RejectsEmptyAndOverlong) {
  EXPECT_TRUE(validate_tenant(""));
  EXPECT_TRUE(validate_tenant(std::string(65, 'x')));
}

TEST(ValidateTenant, RejectsNameSeparatorsAndPathCharacters) {
  // '.' is the prefix separator; '/' and '\\' would reach a filename.
  for (const char* bad : {"a.b", ".", "..", "a/b", "/etc", "a\\b", "a b",
                          "a\tb", "a\nb", "\xc3\xbc", "a:b", "a*"}) {
    EXPECT_TRUE(validate_tenant(bad)) << bad;
  }
}

TEST(ValidateTenant, RejectionNamesTheOffendingCharacter) {
  const auto reason = validate_tenant("a/b");
  ASSERT_TRUE(reason);
  EXPECT_NE(reason->find('/'), std::string::npos) << *reason;
}

TEST(PayloadStrings, RoundTripInSequence) {
  ByteVec payload;
  append_string(payload, "alice");
  append_string(payload, "");
  append_string(payload, std::string(300, 'z'));

  std::size_t pos = 0;
  const auto a = read_string(ByteSpan{payload}, pos);
  const auto b = read_string(ByteSpan{payload}, pos);
  const auto c = read_string(ByteSpan{payload}, pos);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(*a, "alice");
  EXPECT_EQ(*b, "");
  EXPECT_EQ(*c, std::string(300, 'z'));
  EXPECT_EQ(pos, payload.size());
  EXPECT_FALSE(read_string(ByteSpan{payload}, pos));  // exhausted
}

TEST(PayloadStrings, TruncatedPayloadIsRejectedNotRead) {
  ByteVec payload;
  append_string(payload, "hello");
  payload.resize(payload.size() - 2);  // cut into the body
  std::size_t pos = 0;
  EXPECT_FALSE(read_string(ByteSpan{payload}, pos));

  ByteVec header_only{Byte{0x05}};  // half a u16 length
  pos = 0;
  EXPECT_FALSE(read_string(ByteSpan{header_only}, pos));
}

class SocketPair {
 public:
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a_ = fds[0];
    b_ = fds[1];
  }
  ~SocketPair() {
    if (a_ >= 0) ::close(a_);
    if (b_ >= 0) ::close(b_);
  }
  void close_a() {
    ::close(a_);
    a_ = -1;
  }
  int a() const { return a_; }
  int b() const { return b_; }

 private:
  int a_ = -1, b_ = -1;
};

TEST(FrameIo, RoundTripsTypeAndPayload) {
  SocketPair pair;
  const std::string text = "stats payload";
  write_frame(pair.a(), MsgType::kOk, text);

  FrameReader reader(pair.b());
  Frame frame;
  ASSERT_TRUE(reader.read_frame(frame));
  EXPECT_EQ(frame.type, MsgType::kOk);
  EXPECT_EQ(std::string(frame.payload.begin(), frame.payload.end()), text);
}

TEST(FrameIo, EmptyPayloadAndCleanEofAtFrameBoundary) {
  SocketPair pair;
  write_frame(pair.a(), MsgType::kPing, ByteSpan{});
  FrameReader reader(pair.b());
  Frame frame;
  ASSERT_TRUE(reader.read_frame(frame));
  EXPECT_EQ(frame.type, MsgType::kPing);
  EXPECT_TRUE(frame.payload.empty());

  pair.close_a();
  EXPECT_FALSE(reader.read_frame(frame));  // EOF between frames: false
}

TEST(FrameIo, TruncatedFrameMidHeaderThrows) {
  SocketPair pair;
  const Byte partial[2] = {Byte{0x10}, Byte{0x00}};
  ASSERT_EQ(::send(pair.a(), partial, sizeof(partial), 0),
            static_cast<ssize_t>(sizeof(partial)));
  pair.close_a();
  FrameReader reader(pair.b());
  Frame frame;
  EXPECT_THROW(reader.read_frame(frame), ProtocolError);
}

TEST(FrameIo, OversizedFrameIsRejectedBeforeAllocation) {
  SocketPair pair;
  Byte header[5];
  store_le(header, kMaxFramePayload + 1);
  header[4] = static_cast<Byte>(MsgType::kPutData);
  ASSERT_EQ(::send(pair.a(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  FrameReader reader(pair.b());
  Frame frame;
  EXPECT_THROW(reader.read_frame(frame), ProtocolError);
}

TEST(FrameReaderTest, StreamsPayloadsAcrossCoalescedFrames) {
  SocketPair pair;
  ByteVec d0(32), d1(48);
  for (std::size_t i = 0; i < d0.size(); ++i) d0[i] = static_cast<Byte>(i);
  for (std::size_t i = 0; i < d1.size(); ++i) d1[i] = static_cast<Byte>(200 - i);
  write_frame(pair.a(), MsgType::kPutData, ByteSpan{d0});
  write_frame(pair.a(), MsgType::kPutData, ByteSpan{d1});
  write_frame(pair.a(), MsgType::kPutEnd, ByteSpan{});
  pair.close_a();

  FrameReader reader(pair.b());
  MsgType type;
  std::uint32_t len;
  ASSERT_TRUE(reader.next_header(type, len));
  EXPECT_EQ(type, MsgType::kPutData);
  ASSERT_EQ(len, d0.size());
  // Streaming style: drain the payload in odd-sized pieces.
  ByteVec got(len);
  std::size_t off = 0;
  while (off < got.size()) {
    const std::size_t want = std::min<std::size_t>(7, got.size() - off);
    const std::size_t n = reader.read_payload({got.data() + off, want});
    ASSERT_GT(n, 0u);
    off += n;
  }
  EXPECT_EQ(got, d0);
  EXPECT_EQ(reader.payload_remaining(), 0u);

  // Whole-frame style interoperates on the same reader.
  Frame frame;
  ASSERT_TRUE(reader.read_frame(frame));
  EXPECT_EQ(frame.type, MsgType::kPutData);
  EXPECT_EQ(frame.payload, d1);

  ASSERT_TRUE(reader.next_header(type, len));
  EXPECT_EQ(type, MsgType::kPutEnd);
  EXPECT_EQ(len, 0u);
  EXPECT_FALSE(reader.next_header(type, len));  // clean EOF at boundary
  // All three frames were written before the first read; the coalescing
  // buffer held more than a lone 5-byte header at its peak.
  EXPECT_GE(reader.buffer_high_water(), 5u);
}

TEST(FrameReaderTest, NextHeaderWithUnconsumedPayloadThrows) {
  SocketPair pair;
  const ByteVec data(16, Byte{0xAB});
  write_frame(pair.a(), MsgType::kPutData, ByteSpan{data});
  FrameReader reader(pair.b());
  MsgType type;
  std::uint32_t len;
  ASSERT_TRUE(reader.next_header(type, len));
  Byte half[8];
  ASSERT_EQ(reader.read_payload({half, sizeof(half)}), sizeof(half));
  EXPECT_THROW(reader.next_header(type, len), ProtocolError);
}

TEST(FrameReaderTest, LargePayloadBypassesTheCoalescingBuffer) {
  SocketPair pair;
  ByteVec big(4096);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<Byte>(i * 31);
  }
  write_frame(pair.a(), MsgType::kData, ByteSpan{big});
  // A 64-byte buffer cannot hold the payload: after the buffered prefix
  // is drained, the rest must be read straight into the caller's memory.
  FrameReader reader(pair.b(), /*buffer_bytes=*/64);
  Frame frame;
  ASSERT_TRUE(reader.read_frame(frame));
  EXPECT_EQ(frame.payload, big);
  EXPECT_LE(reader.buffer_high_water(), 64u);
}

TEST(FrameReaderTest, EofMidPayloadThrows) {
  SocketPair pair;
  Byte header[5];
  store_le(header, std::uint32_t{100});
  header[4] = static_cast<Byte>(MsgType::kPutData);
  ASSERT_EQ(::send(pair.a(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  const char some[10] = {};
  ASSERT_EQ(::send(pair.a(), some, sizeof(some), 0),
            static_cast<ssize_t>(sizeof(some)));
  pair.close_a();
  FrameReader reader(pair.b());
  Frame frame;
  EXPECT_THROW(reader.read_frame(frame), ProtocolError);
}

TEST(FrameReaderTest, OversizedFrameIsRejectedBeforeAllocation) {
  SocketPair pair;
  Byte header[5];
  store_le(header, kMaxFramePayload + 1);
  header[4] = static_cast<Byte>(MsgType::kPutData);
  ASSERT_EQ(::send(pair.a(), header, sizeof(header), 0),
            static_cast<ssize_t>(sizeof(header)));
  FrameReader reader(pair.b());
  MsgType type;
  std::uint32_t len;
  EXPECT_THROW(reader.next_header(type, len), ProtocolError);
}

TEST(TransportStatsTest, WriteFrameIsOneVectoredSyscall) {
  SocketPair pair;
  reset_transport_stats();
  const std::string text = "hello transport";
  write_frame(pair.a(), MsgType::kOk, text);
  const auto after_write = transport_stats();
  // Header + payload leave in a single sendmsg — the bytes-per-syscall
  // contract the bench report is built on.
  EXPECT_EQ(after_write.write_calls, 1u);
  EXPECT_EQ(after_write.write_bytes, 5u + text.size());

  FrameReader reader(pair.b());
  Frame frame;
  ASSERT_TRUE(reader.read_frame(frame));
  EXPECT_EQ(std::string(frame.payload.begin(), frame.payload.end()), text);
  const auto after_read = transport_stats();
  // The whole frame arrives in one coalesced read.
  EXPECT_EQ(after_read.read_calls, 1u);
  EXPECT_EQ(after_read.read_bytes, 5u + text.size());
}

TEST(ListenerTest, TcpEphemeralAcceptAndConnect) {
  Listener listener;
  listener.listen("tcp:0");
  ASSERT_GT(listener.port(), 0);
  const std::string spec = "tcp:" + std::to_string(listener.port());
  EXPECT_EQ(listener.spec(), "tcp:0");  // as requested; port() resolves

  std::thread server([&] {
    const int fd = listener.accept();
    ASSERT_GE(fd, 0);
    FrameReader reader(fd);
    Frame frame;
    ASSERT_TRUE(reader.read_frame(frame));
    write_frame(fd, MsgType::kOk, frame.payload.empty()
                                      ? std::string("pong")
                                      : std::string("echo"));
    ::close(fd);
  });

  const int fd = connect_to(spec);
  ASSERT_GE(fd, 0);
  write_frame(fd, MsgType::kPing, ByteSpan{});
  FrameReader reader(fd);
  Frame reply;
  ASSERT_TRUE(reader.read_frame(reply));
  EXPECT_EQ(reply.type, MsgType::kOk);
  ::close(fd);
  server.join();
  listener.close();
}

TEST(ListenerTest, UnixSocketRoundTripAndCleanup) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("mhd_proto_" + std::to_string(::getpid()) + ".sock");
  const std::string spec = "unix:" + path.string();
  Listener listener;
  listener.listen(spec);
  ASSERT_TRUE(std::filesystem::exists(path));

  std::thread server([&] {
    const int fd = listener.accept();
    ASSERT_GE(fd, 0);
    FrameReader reader(fd);
    Frame frame;
    ASSERT_TRUE(reader.read_frame(frame));
    write_frame(fd, MsgType::kOk, std::string("pong"));
    ::close(fd);
  });

  const int fd = connect_to(spec);
  ASSERT_GE(fd, 0);
  write_frame(fd, MsgType::kPing, ByteSpan{});
  FrameReader reader(fd);
  Frame reply;
  ASSERT_TRUE(reader.read_frame(reply));
  EXPECT_EQ(reply.type, MsgType::kOk);
  ::close(fd);
  server.join();

  listener.close();  // unlinks the socket path
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(ListenerTest, WakeUnblocksAccept) {
  Listener listener;
  listener.listen("tcp:0");
  std::thread blocked([&] { EXPECT_EQ(listener.accept(), -1); });
  listener.wake();
  blocked.join();
  listener.close();
}

}  // namespace
}  // namespace mhd::server
