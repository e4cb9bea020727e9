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
#include <string>
#include <utility>

#include "core/check.hpp"

namespace mci::live {

namespace {

bool bindTo(const Socket& s, const sockaddr_in& addr) {
  return ::bind(s.fd(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) == 0;
}

void setIntOption(const Socket& s, int level, int name, int value) {
  ::setsockopt(s.fd(), level, name, &value, sizeof value);
}

/// Joins `group` on interface `iface` (both host byte order).
void joinGroup(const Socket& s, std::uint32_t group, std::uint32_t iface) {
  ip_mreq mreq{};
  mreq.imr_multiaddr.s_addr = htonl(group);
  mreq.imr_interface.s_addr = htonl(iface);
  if (::setsockopt(s.fd(), IPPROTO_IP, IP_ADD_MEMBERSHIP, &mreq,
                   sizeof mreq) != 0) {
    throw std::runtime_error("live: multicast join failed");
  }
}

Socket openUdp() {
  Socket s(::socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!s.isOpen()) throw std::runtime_error("live: UDP socket() failed");
  return s;
}

}  // namespace

std::optional<std::uint32_t> parseIpv4(const std::string& text) {
  in_addr addr{};
  if (::inet_pton(AF_INET, text.c_str(), &addr) != 1) return std::nullopt;
  return ntohl(addr.s_addr);
}

sockaddr_in ipv4Address(std::uint32_t ipv4, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(ipv4);
  addr.sin_port = htons(port);
  return addr;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    reactor_ = std::exchange(other.reactor_, nullptr);
    reg_ = std::exchange(other.reg_, {});
  }
  return *this;
}

void Socket::watch(Reactor& reactor, Reactor::FdHandle reg) {
  MCI_DCHECK(isOpen() && reg.fd == fd_ && reactor_ == nullptr)
      << "watch() takes the one registration of this socket's fd";
  reactor_ = &reactor;
  reg_ = reg;
}

std::uint16_t Socket::boundPort() const {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

void Socket::close() {
  if (fd_ < 0) return;
  if (reactor_ != nullptr) reactor_->removeFd(reg_);
  ::close(fd_);
  fd_ = -1;
  reactor_ = nullptr;
}

Socket dialTcp(std::uint32_t ipv4, std::uint16_t port) {
  Socket s(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!s.isOpen()) return s;
  // Uplink frames are small and latency-bound: without TCP_NODELAY, Nagle
  // holds them behind the peer's delayed ACK and a loopback round trip
  // stretches to tens of milliseconds — a whole broadcast period at high
  // time scales, turning every miss fill into a late (discarded) copy.
  setIntOption(s, IPPROTO_TCP, TCP_NODELAY, 1);
  const sockaddr_in addr = ipv4Address(ipv4, port);
  // Dials happen at startup, on a reshard epoch and per handoff stream,
  // never per frame; the I/O after them is nonblocking.
  // MCI-ANALYZE-ALLOW(reactor-blocking): loopback connect, one RTT
  const bool connected = ::connect(s.fd(),
                                   reinterpret_cast<const sockaddr*>(&addr),
                                   sizeof addr) == 0;
  const int flags = connected ? ::fcntl(s.fd(), F_GETFL, 0) : -1;
  if (flags < 0 || ::fcntl(s.fd(), F_SETFL, flags | O_NONBLOCK) != 0) {
    s.close();
  }
  return s;
}

Socket listenTcp(std::uint32_t ipv4, std::uint16_t port) {
  Socket s(
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!s.isOpen()) throw std::runtime_error("live: TCP socket() failed");
  setIntOption(s, SOL_SOCKET, SO_REUSEADDR, 1);
  if (!bindTo(s, ipv4Address(ipv4, port)) || ::listen(s.fd(), 128) != 0) {
    throw std::runtime_error("live: TCP bind/listen failed on port " +
                             std::to_string(port));
  }
  return s;
}

Socket acceptTcp(const Socket& listener, int sendBufferBytes,
                 sockaddr_in& peer) {
  socklen_t len = sizeof peer;
  Socket s(::accept4(listener.fd(), reinterpret_cast<sockaddr*>(&peer), &len,
                     SOCK_NONBLOCK | SOCK_CLOEXEC));
  if (!s.isOpen()) return s;
  if (sendBufferBytes > 0) {
    setIntOption(s, SOL_SOCKET, SO_SNDBUF, sendBufferBytes);
  }
  // DataItem fills and check acks must beat the next broadcast; Nagle
  // would park these small frames behind the client's delayed ACK.
  setIntOption(s, IPPROTO_TCP, TCP_NODELAY, 1);
  return s;
}

Socket openDownlinkUdp(std::uint32_t ipv4, std::uint32_t mcastIpv4,
                       std::uint16_t mcastPort, int receiveBufferBytes) {
  Socket s = openUdp();
  sockaddr_in addr = ipv4Address(INADDR_LOOPBACK, 0);
  if (mcastIpv4 != 0) {
    setIntOption(s, SOL_SOCKET, SO_REUSEADDR, 1);
    addr = ipv4Address(INADDR_ANY, mcastPort);
  }
  if (!bindTo(s, addr)) {
    throw std::runtime_error("live: downlink UDP bind failed");
  }
  if (mcastIpv4 != 0) joinGroup(s, mcastIpv4, ipv4);
  if (receiveBufferBytes > 0) {
    setIntOption(s, SOL_SOCKET, SO_RCVBUF, receiveBufferBytes);
  }
  return s;
}

Socket openIrUdp(std::uint32_t ipv4, std::uint32_t mcastIpv4) {
  Socket s = openUdp();
  if (mcastIpv4 == 0) return s;
  in_addr iface{};
  iface.s_addr = htonl(ipv4);
  ::setsockopt(s.fd(), IPPROTO_IP, IP_MULTICAST_IF, &iface, sizeof iface);
  const std::uint8_t loop = 1;
  const std::uint8_t ttl = 1;
  ::setsockopt(s.fd(), IPPROTO_IP, IP_MULTICAST_LOOP, &loop, sizeof loop);
  ::setsockopt(s.fd(), IPPROTO_IP, IP_MULTICAST_TTL, &ttl, sizeof ttl);
  joinGroup(s, mcastIpv4, ipv4);
  setIntOption(s, SOL_SOCKET, SO_RCVBUF, 1);  // never read
  return s;
}

void FrameStream::adopt(Reactor& reactor, Socket socket) {
  MCI_CHECK(reactor_ == nullptr) << "FrameStream adopts a single socket";
  reactor_ = &reactor;
  socket_ = std::move(socket);
}

void FrameStream::close() {
  if (!isOpen()) return;
  socket_.close();
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
    const ssize_t n = ::send(fd(), frame.data(), frame.size(),
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
    const ssize_t n =
        ::send(fd(), out_.data() + outOff_, out_.size() - outOff_,
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
  reactor_->modifyFd(fd(), on ? (EPOLLIN | EPOLLOUT) : EPOLLIN);
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
  const ssize_t n = ::recv(fd(), buf, sizeof buf, MSG_DONTWAIT);
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
