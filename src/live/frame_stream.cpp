#include "live/frame_stream.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <stdexcept>
#include <utility>

#include "core/check.hpp"

namespace mci::live {

int dialTcp(std::uint32_t ipv4, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  // Uplink frames are small and latency-bound: without TCP_NODELAY, Nagle
  // holds them behind the peer's delayed ACK and a loopback round trip
  // stretches to tens of milliseconds — a whole broadcast period at high
  // time scales, turning every miss fill into a late (discarded) copy.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ipv4);
  addr.sin_port = htons(port);
  // Dials happen at startup, on a reshard epoch and per handoff stream,
  // never per frame; the I/O after them is nonblocking.
  // MCI-ANALYZE-ALLOW(reactor-blocking): loopback connect, one RTT
  const bool connected = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                                   sizeof addr) == 0;
  const int flags = connected ? ::fcntl(fd, F_GETFL, 0) : -1;
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

int openDownlinkUdp(std::uint32_t ipv4, std::uint32_t mcastIpv4,
                    std::uint16_t mcastPort) {
  const int fd =
      ::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("live: UDP socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  if (mcastIpv4 != 0) {
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    addr.sin_port = htons(mcastPort);
  } else {
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    throw std::runtime_error("live: downlink UDP bind failed");
  }
  if (mcastIpv4 != 0) {
    ip_mreq mreq{};
    mreq.imr_multiaddr.s_addr = htonl(mcastIpv4);
    mreq.imr_interface.s_addr = htonl(ipv4);
    if (::setsockopt(fd, IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq, sizeof mreq) !=
        0) {
      ::close(fd);
      throw std::runtime_error("live: multicast join failed");
    }
  }
  return fd;
}

void FrameStream::adopt(Reactor& reactor, int fd) {
  MCI_CHECK(reactor_ == nullptr) << "FrameStream adopts a single fd";
  reactor_ = &reactor;
  fd_ = fd;
}

void FrameStream::close() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  out_.clear();
  outOff_ = 0;
  wantWrite_ = false;
  corked_ = false;
}

bool FrameStream::send(std::span<const std::uint8_t> frame) {
  MCI_DCHECK(isOpen()) << "send on a closed FrameStream";
  std::size_t sent = 0;
  if (!corked_ && queuedBytes() == 0) {
    // Empty-queue fast path: straight from the caller's buffer, no queue
    // copy unless the socket buffer fills mid-frame.
    ++sendSyscalls_;
    const ssize_t n = ::send(fd_, frame.data(), frame.size(),
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return false;
    sent = n > 0 ? static_cast<std::size_t>(n) : 0;
    if (sent == frame.size()) return true;
  }
  // Uncorked, a queued tail means EPOLLOUT is already on; appending keeps
  // frame order and leaves the write to flush().
  // MCI-ANALYZE-ALLOW(hot-path-alloc): backlog high-water capacity only
  out_.insert(out_.end(), frame.begin() + static_cast<std::ptrdiff_t>(sent),
              frame.end());
  if (corked_) {
    // A long batch is written a chunk at a time, so a burst never parks
    // whole in user space; behind an armed EPOLLOUT the kernel is full and
    // flush() runs when it signals room.
    return wantWrite_ || queuedBytes() < kChunkBytes || flush();
  }
  watchWritable(true);
  return true;
}

bool FrameStream::uncork() {
  corked_ = false;
  if (wantWrite_ || queuedBytes() == 0) return true;
  return flush();
}

bool FrameStream::flush() {
  while (outOff_ < out_.size()) {
    ++sendSyscalls_;
    const ssize_t n = ::send(fd_, out_.data() + outOff_, out_.size() - outOff_,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      outOff_ += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Compact once the drained prefix outweighs the tail: a reader that
      // is slow but never fully behind would otherwise grow the buffer by
      // everything ever sent. The move costs at most the bytes drained.
      if (outOff_ >= queuedBytes()) {
        out_.erase(out_.begin(),
                   out_.begin() + static_cast<std::ptrdiff_t>(outOff_));
        outOff_ = 0;
      }
      watchWritable(true);
      return true;
    }
    return false;
  }
  out_.clear();
  outOff_ = 0;
  watchWritable(false);
  return true;
}

std::uint64_t FrameStream::takeSendSyscalls() {
  return std::exchange(sendSyscalls_, 0);
}

void FrameStream::watchWritable(bool on) {
  if (on == wantWrite_) return;
  wantWrite_ = on;
  reactor_->modifyFd(fd_, on ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
}

std::optional<wire::FrameView> FrameStream::next() {
  MCI_DCHECK(isOpen()) << "next on a closed FrameStream";
  while (!failed_) {
    if (std::optional<wire::FrameView> f = in_.next()) return f;
    if (in_.corrupt()) {
      failed_ = true;
      break;
    }
    // Read until EAGAIN even after a short chunk: on loopback each recv
    // reopens the window and pulls the peer's queued send buffer in, and
    // leaving it there keeps the peer's socket full.
    if (!recvChunk()) break;
  }
  return std::nullopt;
}

bool FrameStream::recvChunk() {
  // Out of line so the chunk buffer's stack frame is paid per recv, not
  // per frame handed out by next().
  std::uint8_t buf[kChunkBytes];
  const ssize_t n = ::recv(fd_, buf, sizeof buf, MSG_DONTWAIT);
  if (n > 0) {
    in_.append(buf, static_cast<std::size_t>(n));
    return true;
  }
  if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
    failed_ = true;  // orderly EOF or hard error
  }
  return false;
}

std::uint64_t FrameStream::takeSkippedFrames() {
  const std::uint64_t n = in_.badFrames() - skippedTaken_;
  skippedTaken_ = in_.badFrames();
  return n;
}

}  // namespace mci::live
