// FrameStream: the one framed-TCP implementation under every live endpoint.
// Driven over an AF_UNIX socketpair with a tiny send buffer, so short
// writes, the queued tail and the EPOLLOUT toggle all happen for real.

#include "live/frame_stream.hpp"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <optional>
#include <vector>

#include "live/reactor.hpp"
#include "live/wire.hpp"
#include "live/wire_bytes.hpp"

namespace mci::live {
namespace {

/// A nonblocking socketpair: `stream` owns end 0 (registered with the
/// reactor, tiny SO_SNDBUF); the test plays the peer on end 1.
class FrameStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    int sv[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                           0, sv),
              0);
    const int tiny = 1;  // the kernel clamps this to its minimum
    ::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof tiny);
    peer_ = sv[1];
    stream_.adopt(reactor_, Socket(sv[0]));
    stream_.watch(reactor_.addFd(sv[0], EPOLLIN, [this](std::uint32_t ev) {
      events_ |= ev;
      if ((ev & EPOLLOUT) != 0) flushOk_ = flushOk_ && stream_.flush();
    }));
  }

  void TearDown() override {
    stream_.close();
    if (peer_ >= 0) ::close(peer_);
  }

  /// Everything the peer can read right now.
  std::vector<std::uint8_t> readPeer() {
    std::vector<std::uint8_t> got;
    std::uint8_t buf[4096];
    for (;;) {
      const ssize_t n = ::recv(peer_, buf, sizeof buf, 0);
      if (n <= 0) return got;
      got.insert(got.end(), buf, buf + n);
    }
  }

  void writePeer(const std::vector<std::uint8_t>& bytes) {
    ASSERT_EQ(::send(peer_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  Reactor reactor_;
  FrameStream stream_;
  int peer_ = -1;
  std::uint32_t events_ = 0;
  bool flushOk_ = true;
};

/// Payloads of 1 KB to ~24 KB: the larger ones overrun the clamped send
/// buffer mid-frame, so send really returns short.
std::vector<std::uint8_t> payloadOf(std::size_t i) {
  std::vector<std::uint8_t> p(1000 + (i * 7919) % 23000);
  for (std::size_t j = 0; j < p.size(); ++j) {
    p[j] = static_cast<std::uint8_t>(i * 31 + j);
  }
  return p;
}

std::vector<std::uint8_t> frameOf(wire::FrameType type,
                                  const std::vector<std::uint8_t>& payload) {
  return wire::wiretest::framed(type, wire::kNoScheme,
                               net::TrafficClass::kBulk, payload);
}

TEST_F(FrameStreamTest, ShortWritesQueueThenFlushInOrderAndDropEpollout) {
  constexpr std::size_t kFrames = 100;  // ~1.2 MB: far past the send buffer
  std::vector<std::uint8_t> expected;
  bool sawShortWrite = false;  // the kernel took part of a frame
  for (std::size_t i = 0; i < kFrames; ++i) {
    const std::vector<std::uint8_t> frame =
        frameOf(wire::FrameType::kDataItem, payloadOf(i));
    const bool wasEmpty = stream_.queuedBytes() == 0;
    ASSERT_TRUE(stream_.send(frame)) << "frame " << i;
    const std::size_t queued = stream_.queuedBytes();
    sawShortWrite =
        sawShortWrite || (wasEmpty && queued > 0 && queued < frame.size());
    expected.insert(expected.end(), frame.begin(), frame.end());
  }
  EXPECT_TRUE(sawShortWrite) << "no send was cut short mid-frame";
  EXPECT_GT(stream_.queuedBytes(), 0u) << "burst fit the socket buffer";

  // The peer drains; each writable event lets flush() push more.
  std::vector<std::uint8_t> got;
  for (int round = 0; round < 10'000 && got.size() < expected.size();
       ++round) {
    const std::vector<std::uint8_t> chunk = readPeer();
    got.insert(got.end(), chunk.begin(), chunk.end());
    reactor_.runOnce(0);
  }
  EXPECT_TRUE(flushOk_);
  EXPECT_NE(events_ & EPOLLOUT, 0u) << "a queued tail must ask for EPOLLOUT";
  EXPECT_EQ(stream_.queuedBytes(), 0u);
  EXPECT_EQ(got, expected) << "frames must arrive byte-identical, in order";

  // Queue empty: EPOLLOUT interest is off, so a writable socket stays quiet.
  events_ = 0;
  for (int i = 0; i < 3; ++i) reactor_.runOnce(0);
  EXPECT_EQ(events_ & EPOLLOUT, 0u);
}

TEST_F(FrameStreamTest, PeerCloseFailsFlushAndReadWithoutSigpipe) {
  // Fill the socket so a tail is queued, then lose the peer.
  const std::vector<std::uint8_t> frame =
      frameOf(wire::FrameType::kDataItem, payloadOf(1));
  while (stream_.queuedBytes() == 0) ASSERT_TRUE(stream_.send(frame));
  ::close(peer_);
  peer_ = -1;
  EXPECT_FALSE(stream_.flush());  // EPIPE, and no SIGPIPE killed us
  EXPECT_EQ(stream_.next(), std::nullopt);
  EXPECT_TRUE(stream_.failed());
  EXPECT_FALSE(stream_.corrupt());
}

TEST(FrameStream, SendToAClosedPeerFailsWithoutSigpipe) {
  Reactor reactor;
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                         0, sv),
            0);
  ::close(sv[1]);
  FrameStream stream;
  stream.adopt(reactor, Socket(sv[0]));
  stream.watch(reactor.addFd(sv[0], EPOLLIN, [](std::uint32_t) {}));
  EXPECT_FALSE(stream.send(frameOf(wire::FrameType::kBye, {})));
  stream.close();
  EXPECT_EQ(reactor.fdCount(), 0u) << "close() kept the registration";
}

// A Socket owns its fd and its registration: moving hands both over,
// assigning over an open socket closes the old one (registration first),
// and close() is idempotent.
TEST(Socket, ClosesItsFdAndRegistrationExactlyOnce) {
  Reactor reactor;
  constexpr std::uint32_t kLoopback = 0x7F000001u;
  Socket a = openDownlinkUdp(kLoopback, 0, 0);
  ASSERT_TRUE(a.isOpen());
  EXPECT_NE(a.boundPort(), 0u);
  const int firstFd = a.fd();
  a.watch(reactor, reactor.addFd(firstFd, EPOLLIN, [](std::uint32_t) {}));
  ASSERT_EQ(reactor.fdCount(), 1u);

  Socket b = std::move(a);
  EXPECT_EQ(b.fd(), firstFd);
  EXPECT_EQ(reactor.fdCount(), 1u);

  b = openDownlinkUdp(kLoopback, 0, 0);
  EXPECT_TRUE(b.isOpen());
  EXPECT_NE(b.fd(), firstFd);
  EXPECT_EQ(reactor.fdCount(), 0u) << "the old socket kept its registration";
  EXPECT_EQ(::fcntl(firstFd, F_GETFD), -1) << "the old socket's fd is open";

  b.close();
  b.close();
  EXPECT_FALSE(b.isOpen());
  EXPECT_EQ(b.boundPort(), 0u);
}

TEST_F(FrameStreamTest, CorkedSendsBelowAChunkMakeNoSyscall) {
  const std::vector<std::uint8_t> frame =
      frameOf(wire::FrameType::kDataItem, payloadOf(0));
  stream_.cork();
  std::size_t queued = 0;
  while (queued + frame.size() < FrameStream::kChunkBytes) {
    ASSERT_TRUE(stream_.send(frame));
    queued += frame.size();
  }
  EXPECT_EQ(stream_.takeSendSyscalls(), 0u) << "a corked send wrote";
  EXPECT_EQ(stream_.queuedBytes(), queued);
  EXPECT_FALSE(stream_.writeBlocked());
  for (int i = 0; i < 3; ++i) reactor_.runOnce(0);
  EXPECT_EQ(events_ & EPOLLOUT, 0u) << "a corked batch armed EPOLLOUT";
  EXPECT_TRUE(readPeer().empty());

  // Reaching a chunk writes it; the tiny socket refuses most, so EPOLLOUT
  // is armed and further corked sends wait for it without a syscall.
  ASSERT_TRUE(stream_.send(frame));
  EXPECT_GT(stream_.takeSendSyscalls(), 0u) << "a full chunk must write";
  EXPECT_TRUE(stream_.writeBlocked());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(stream_.send(frame));
  EXPECT_EQ(stream_.takeSendSyscalls(), 0u) << "wrote behind an armed EPOLLOUT";
  EXPECT_TRUE(stream_.uncork());
  EXPECT_EQ(stream_.takeSendSyscalls(), 0u);
}

TEST_F(FrameStreamTest, UncorkOnAFullSocketArmsEpolloutAndDrainsInOrder) {
  std::vector<std::uint8_t> expected;
  stream_.cork();
  for (std::size_t i = 0; i < 4; ++i) {  // ~40 KB: under a chunk
    const std::vector<std::uint8_t> frame =
        frameOf(wire::FrameType::kDataItem, payloadOf(i));
    ASSERT_TRUE(stream_.send(frame));
    expected.insert(expected.end(), frame.begin(), frame.end());
  }
  ASSERT_EQ(stream_.takeSendSyscalls(), 0u);
  ASSERT_TRUE(stream_.uncork());
  EXPECT_GT(stream_.takeSendSyscalls(), 0u) << "uncork never wrote";
  EXPECT_GT(stream_.queuedBytes(), 0u) << "batch fit the socket buffer";
  EXPECT_TRUE(stream_.writeBlocked()) << "a refused tail must arm EPOLLOUT";

  std::vector<std::uint8_t> got;
  for (int round = 0; round < 10'000 && got.size() < expected.size();
       ++round) {
    const std::vector<std::uint8_t> chunk = readPeer();
    got.insert(got.end(), chunk.begin(), chunk.end());
    reactor_.runOnce(0);
  }
  EXPECT_TRUE(flushOk_);
  EXPECT_NE(events_ & EPOLLOUT, 0u);
  EXPECT_EQ(stream_.queuedBytes(), 0u);
  EXPECT_FALSE(stream_.writeBlocked());
  EXPECT_EQ(got, expected) << "frames must arrive byte-identical, in order";
}

TEST_F(FrameStreamTest, UncorkToAClosedPeerFailsWithoutSigpipe) {
  stream_.cork();
  ASSERT_TRUE(stream_.send(frameOf(wire::FrameType::kDataItem, payloadOf(1))));
  ::close(peer_);
  peer_ = -1;
  EXPECT_FALSE(stream_.uncork());  // EPIPE, and no SIGPIPE killed us
}

TEST_F(FrameStreamTest, SlowReaderCannotGrowTheQueueWithoutBound) {
  // The peer drains half of what is queued each round, so the tail never
  // empties; without compaction the buffer would hold everything sent.
  constexpr std::size_t kLevel = 64 * 1024;
  const std::vector<std::uint8_t> frame =
      frameOf(wire::FrameType::kDataItem, payloadOf(0));
  std::size_t sent = 0;
  std::size_t maxCapacity = 0;
  for (int round = 0; round < 200; ++round) {
    while (stream_.queuedBytes() < kLevel) {
      ASSERT_TRUE(stream_.send(frame));
      sent += frame.size();
    }
    const std::size_t target = stream_.queuedBytes() / 2;
    while (stream_.queuedBytes() > target) {
      (void)readPeer();
      reactor_.runOnce(0);
    }
    ASSERT_GT(stream_.queuedBytes(), 0u) << "round " << round;
    maxCapacity = std::max(maxCapacity, stream_.queueCapacity());
  }
  ASSERT_TRUE(flushOk_);
  ASSERT_GT(sent, 40 * kLevel);
  EXPECT_LE(maxCapacity, 8 * kLevel) << "queue grew with the bytes sent";
}

TEST_F(FrameStreamTest, ChecksumFailedFrameIsSkippedAndCounted) {
  const std::vector<std::uint8_t> a =
      frameOf(wire::FrameType::kDataItem, payloadOf(1));
  std::vector<std::uint8_t> bad =
      frameOf(wire::FrameType::kCheckAck, payloadOf(2));
  bad.back() ^= 0x01;  // payload bit flip: length intact, CRC fails
  const std::vector<std::uint8_t> c =
      frameOf(wire::FrameType::kWelcome, payloadOf(3));
  std::vector<std::uint8_t> bytes = a;
  bytes.insert(bytes.end(), bad.begin(), bad.end());
  bytes.insert(bytes.end(), c.begin(), c.end());
  writePeer(bytes);

  std::optional<wire::FrameView> f = stream_.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->header.type, wire::FrameType::kDataItem);
  EXPECT_EQ(stream_.takeSkippedFrames(), 0u);
  f = stream_.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->header.type, wire::FrameType::kWelcome);
  EXPECT_EQ(std::vector<std::uint8_t>(f->payload.begin(), f->payload.end()),
            payloadOf(3));
  EXPECT_EQ(stream_.takeSkippedFrames(), 1u);
  EXPECT_EQ(stream_.takeSkippedFrames(), 0u) << "counted once";
  EXPECT_EQ(stream_.next(), std::nullopt);
  EXPECT_FALSE(stream_.failed()) << "framing survived the skipped frame";
}

TEST_F(FrameStreamTest, GarbageBytesMarkTheStreamCorrupt) {
  writePeer(std::vector<std::uint8_t>(64, 0xAB));
  EXPECT_EQ(stream_.next(), std::nullopt);
  EXPECT_TRUE(stream_.failed());
  EXPECT_TRUE(stream_.corrupt());
}

}  // namespace
}  // namespace mci::live
