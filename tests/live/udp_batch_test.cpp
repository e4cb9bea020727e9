#include "live/udp_batch.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>
#include <vector>

namespace mci::live {
namespace {

/// A nonblocking UDP socket bound to an ephemeral loopback port.
struct BoundSocket {
  int fd = -1;
  sockaddr_in addr{};

  BoundSocket() {
    fd = ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in bindAddr{};
    bindAddr.sin_family = AF_INET;
    bindAddr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    bindAddr.sin_port = 0;
    EXPECT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&bindAddr),
                     sizeof bindAddr),
              0);
    socklen_t len = sizeof addr;
    EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  }
  ~BoundSocket() {
    if (fd >= 0) ::close(fd);
  }
  BoundSocket(const BoundSocket&) = delete;
  BoundSocket& operator=(const BoundSocket&) = delete;
};

void sendOne(int fd, const sockaddr_in& to, const std::string& payload) {
  ASSERT_EQ(::sendto(fd, payload.data(), payload.size(), 0,
                     reinterpret_cast<const sockaddr*>(&to), sizeof to),
            static_cast<ssize_t>(payload.size()));
}

/// Drains `fd` with repeated receive() calls; returns all payloads in
/// arrival order and asserts no call exceeds the batch bound.
std::vector<std::string> drainAll(UdpBatchReceiver& rx, int fd,
                                  std::vector<int>* batchSizes = nullptr) {
  std::vector<std::string> out;
  for (;;) {
    bool fellBack = false;
    const int n = rx.receive(fd, fellBack);
    EXPECT_FALSE(fellBack);
    EXPECT_LE(n, static_cast<int>(UdpBatchReceiver::kBatch));
    if (n == 0) return out;
    if (batchSizes != nullptr) batchSizes->push_back(n);
    for (int i = 0; i < n; ++i) {
      const UdpBatchReceiver::Datagram d = rx.datagram(i);
      out.emplace_back(reinterpret_cast<const char*>(d.data), d.len);
    }
  }
}

/// Datagrams waiting on `fd`, counted through drain(), which works on both
/// sides of the recvmmsg probe.
std::size_t drainCount(int fd) {
  UdpBatchReceiver rx;
  std::size_t n = 0;
  rx.drain(fd, [&](const std::uint8_t*, std::size_t) {
    ++n;
    return true;
  });
  return n;
}

TEST(UdpBatchReceiver, ShortReadsKeepExactDatagramLengths) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  BoundSocket rxSock;
  BoundSocket txSock;
  // Sizes chosen well below the 64 KiB slot: the receiver must report the
  // true datagram length, not the slot capacity, and must not bleed bytes
  // between slots.
  const std::vector<std::string> payloads = {
      "x", std::string(7, 'a'), std::string(100, 'b'), std::string(1400, 'c')};
  for (const std::string& p : payloads) sendOne(txSock.fd, rxSock.addr, p);

  UdpBatchReceiver rx;
  const std::vector<std::string> got = drainAll(rx, rxSock.fd);
  ASSERT_EQ(got.size(), payloads.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(got[i].size(), payloads[i].size()) << "datagram " << i;
    EXPECT_EQ(got[i], payloads[i]) << "datagram " << i;
  }
}

TEST(UdpBatchReceiver, BurstsAboveBatchSizeSplitAcrossCalls) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  BoundSocket rxSock;
  BoundSocket txSock;
  const int total = 40;  // > 2 * kBatch: needs at least three receive calls
  for (int i = 0; i < total; ++i) {
    sendOne(txSock.fd, rxSock.addr, "datagram-" + std::to_string(i));
  }

  UdpBatchReceiver rx;
  std::vector<int> batches;
  const std::vector<std::string> got = drainAll(rx, rxSock.fd, &batches);
  ASSERT_EQ(got.size(), static_cast<std::size_t>(total));
  EXPECT_GE(batches.size(), 3u);
  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              "datagram-" + std::to_string(i));
  }
}

// drain() is the one downlink loop every endpoint runs; it must work on
// both sides of the recvmmsg probe, so this case never skips.
TEST(UdpBatchReceiver, DrainYieldsEveryDatagramInOrder) {
  BoundSocket rxSock;
  BoundSocket txSock;
  const int total = 40;  // batches of 16, 16, 8: the short one ends it
  for (int i = 0; i < total; ++i) {
    sendOne(txSock.fd, rxSock.addr, "datagram-" + std::to_string(i));
  }

  UdpBatchReceiver rx;
  std::vector<std::string> got;
  const std::uint64_t syscalls =
      rx.drain(rxSock.fd, [&](const std::uint8_t* data, std::size_t len) {
        got.emplace_back(reinterpret_cast<const char*>(data), len);
        return true;
      });
  ASSERT_EQ(got.size(), static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              "datagram-" + std::to_string(i));
  }
  // One kernel entry per recvmmsg batch, or per recv (plus the EAGAIN one)
  // where the kernel has no recvmmsg.
  EXPECT_EQ(syscalls, UdpBatchSender::available() ? 3u : total + 1u);
}

TEST(UdpBatchReceiver, EmptySocketReturnsZeroWithoutFallback) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  BoundSocket rxSock;
  UdpBatchReceiver rx;
  bool fellBack = true;
  EXPECT_EQ(rx.receive(rxSock.fd, fellBack), 0);
  EXPECT_FALSE(fellBack);
}

// Only ENOSYS means "run your recv() loop instead"; every other error is
// transient and must NOT flip callers into the permanent fallback.
TEST(UdpBatchReceiver, TransientErrorIsNotReportedAsFallback) {
  if (!UdpBatchSender::available()) GTEST_SKIP() << "no sendmmsg/recvmmsg";
  UdpBatchReceiver rx;
  bool fellBack = false;
  EXPECT_EQ(rx.receive(-1, fellBack), 0);  // EBADF
  EXPECT_FALSE(fellBack);
}

// sendToMany falls back to one sendto per destination by itself, so the
// sender cases run on both sides of the probe; only the syscall count
// differs.
TEST(UdpBatchSender, FanOutAboveBatchSplitsIntoMinimalSyscalls) {
  BoundSocket rxSock;
  BoundSocket txSock;
  const std::size_t fanOut = 150;  // ceil(150 / 64) == 3 kernel entries
  const std::vector<const sockaddr_in*> dests(fanOut, &rxSock.addr);
  const std::uint8_t payload[] = {1, 2, 3, 4};

  UdpBatchSender tx;
  const UdpBatchSender::Result res =
      tx.sendToMany(txSock.fd, payload, sizeof payload, dests);
  EXPECT_EQ(res.syscalls, UdpBatchSender::available() ? 3u : fanOut);
  EXPECT_EQ(res.sent, fanOut);
  EXPECT_EQ(res.failed, 0u);

  EXPECT_EQ(drainCount(rxSock.fd), fanOut);
}

TEST(UdpBatchSender, MidBatchRefusedDestinationIsCountedAndSkipped) {
  BoundSocket rxSock;
  BoundSocket txSock;
  // The limited-broadcast address without SO_BROADCAST is refused (EACCES)
  // deterministically — a wedged destination in the middle of a batch.
  sockaddr_in bad{};
  bad.sin_family = AF_INET;
  bad.sin_addr.s_addr = htonl(INADDR_BROADCAST);
  bad.sin_port = htons(9);
  const std::vector<const sockaddr_in*> dests = {&rxSock.addr, &bad,
                                                 &rxSock.addr, &rxSock.addr};
  const std::uint8_t payload[] = {9};

  UdpBatchSender tx;
  const UdpBatchSender::Result res =
      tx.sendToMany(txSock.fd, payload, sizeof payload, dests);
  EXPECT_EQ(res.failed, 1u);
  EXPECT_EQ(res.sent, 3u);

  EXPECT_EQ(drainCount(rxSock.fd), 3u);
}

TEST(UdpBatchSender, EmptyFanOutCostsNothing) {
  BoundSocket txSock;
  UdpBatchSender tx;
  const std::uint8_t payload[] = {0};
  const UdpBatchSender::Result res =
      tx.sendToMany(txSock.fd, payload, sizeof payload, {});
  EXPECT_EQ(res.syscalls, 0u);
  EXPECT_EQ(res.sent, 0u);
}

}  // namespace
}  // namespace mci::live
