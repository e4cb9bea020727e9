#pragma once

#include <netinet/in.h>

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "live/reactor.hpp"
#include "live/wire.hpp"

namespace mci::live {

/// Parses a dotted-quad IPv4 address into host byte order; nullopt when
/// `text` is not one.
[[nodiscard]] std::optional<std::uint32_t> parseIpv4(const std::string& text);
/// The AF_INET address of ipv4:port, both in host byte order.
[[nodiscard]] sockaddr_in ipv4Address(std::uint32_t ipv4, std::uint16_t port);

/// One owned socket: its fd and, once the owner hands it over, the reactor
/// registration of that fd. close() (and the destructor) drops the
/// registration before closing the fd, exactly once. Moving hands both
/// over; assigning over an open socket closes it first. Every socket
/// syscall of the live stack sits behind this class, the openers below,
/// FrameStream and udp_batch.hpp.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}  ///< takes ownership of `fd`
  ~Socket() { close(); }

  Socket(Socket&& other) noexcept { *this = std::move(other); }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] bool isOpen() const { return fd_ >= 0; }

  /// Takes over the owner's registration of fd(). The owner makes the
  /// addFd call itself, tagged with its OwnerId, so the lifetime of the
  /// callback it captures is checked where it is written.
  void watch(Reactor& reactor, Reactor::FdHandle reg);
  /// The locally bound port in host byte order (0 when closed).
  [[nodiscard]] std::uint16_t boundPort() const;
  void close();

 private:
  int fd_ = -1;
  Reactor* reactor_ = nullptr;  ///< set while registered
  Reactor::FdHandle reg_;
};

// The openers take addresses in host byte order. Those that throw
// std::runtime_error leave nothing open.

/// Dials ipv4:port for a framed uplink: TCP_NODELAY, a blocking connect
/// (one round trip on loopback), then O_NONBLOCK. A closed socket when any
/// step fails.
[[nodiscard]] Socket dialTcp(std::uint32_t ipv4, std::uint16_t port);
/// A nonblocking SO_REUSEADDR listener on ipv4:port (0 = ephemeral, read
/// back through boundPort()). Throws on failure.
[[nodiscard]] Socket listenTcp(std::uint32_t ipv4, std::uint16_t port);
/// One pending connection, nonblocking with TCP_NODELAY, and SO_SNDBUF =
/// sendBufferBytes when positive; `peer` gets its address. A closed socket
/// when none is pending (EAGAIN) or accept failed.
[[nodiscard]] Socket acceptTcp(const Socket& listener, int sendBufferBytes,
                               sockaddr_in& peer);
/// A nonblocking IR downlink. mcastIpv4 != 0 binds the group port (shared
/// through SO_REUSEADDR by every listener on the host) and joins the group
/// on interface `ipv4`; otherwise it binds an ephemeral loopback port,
/// which the Hello then names. receiveBufferBytes > 0 asks for that
/// SO_RCVBUF (the kernel may clamp it). Throws on failure.
[[nodiscard]] Socket openDownlinkUdp(std::uint32_t ipv4,
                                     std::uint32_t mcastIpv4,
                                     std::uint16_t mcastPort,
                                     int receiveBufferBytes = 0);
/// The server's nonblocking IR socket, never read. mcastIpv4 != 0 sends
/// from interface `ipv4` with loopback on and TTL 1, so a same-host
/// cluster hears its own group, and joins the group: some stacks drop
/// groups nobody on the host has joined. Throws on failure.
[[nodiscard]] Socket openIrUdp(std::uint32_t ipv4, std::uint32_t mcastIpv4);

/// One framed TCP connection: a connected nonblocking fd, the reassembly
/// buffer of its read side and the unsent tail of its write side. Every
/// live endpoint (server connections, reshard handoff channels, client
/// agents, the swarm mux) speaks the uplink through this class.
///
/// The owner registers fd() with its Reactor for EPOLLIN (tagged with its
/// OwnerId) before the first send() and hands the handle to watch();
/// close() removes it before closing the fd. The stream only toggles
/// EPOLLOUT interest through modifyFd: on once the kernel refuses queued
/// bytes, off once flush() drains them.
///
/// Errors are return values, never callbacks: send(), flush() and uncork()
/// return false on a hard socket error, and next() ends with failed() set
/// on EOF, a hard error or lost framing. The owner then runs its own close
/// policy.
///
/// Batch mode: between cork() and uncork() send() only appends to the
/// unsent tail, so every reply of one readiness event leaves in as few
/// writes as the kernel allows. The bytes and their order on the wire are
/// the same as unbatched; only their grouping into syscalls changes.
class FrameStream {
 public:
  /// Bytes one recv pulls into the reassembly buffer, and the batch size
  /// at which a corked stream writes without waiting for uncork().
  static constexpr std::size_t kChunkBytes = 1 << 16;

  FrameStream() = default;
  ~FrameStream() { close(); }

  FrameStream(const FrameStream&) = delete;
  FrameStream& operator=(const FrameStream&) = delete;
  FrameStream(FrameStream&&) = delete;
  FrameStream& operator=(FrameStream&&) = delete;

  /// Takes ownership of a connected nonblocking socket (a closed one
  /// leaves the stream closed). A stream adopts at most one in its life.
  void adopt(Reactor& reactor, Socket socket);
  /// Takes over the owner's EPOLLIN registration of fd().
  void watch(Reactor::FdHandle reg) { socket_.watch(*reactor_, reg); }

  [[nodiscard]] int fd() const { return socket_.fd(); }
  [[nodiscard]] bool isOpen() const { return socket_.isOpen(); }

  /// Removes the registration, closes the fd and drops any unsent tail;
  /// the read side's counters survive. Idempotent.
  void close();

  /// Sends one whole frame (typically a finished FrameArena's bytes).
  /// With nothing queued, one send puts it on the wire from the caller's
  /// buffer and only the unsent tail is copied; behind a queued tail the
  /// frame is appended whole, keeping order, for flush() to drain. Corked,
  /// the frame is appended and the tail is written once it reaches
  /// kChunkBytes, unless EPOLLOUT is already armed. False on a hard socket
  /// error (no SIGPIPE).
  [[nodiscard]] bool send(std::span<const std::uint8_t> frame);

  /// Writes the queued tail on EPOLLOUT; drops EPOLLOUT interest once it
  /// is empty, arms it when the kernel refuses bytes. False on a hard
  /// socket error.
  [[nodiscard]] bool flush();

  /// Starts a batch: send() appends without a syscall until uncork().
  void cork() { corked_ = true; }
  /// Ends the batch and writes what it left queued; EPOLLOUT is armed only
  /// if the kernel refuses bytes. False on a hard socket error.
  [[nodiscard]] bool uncork();

  /// Bytes accepted by send() that the kernel has not taken yet.
  [[nodiscard]] std::size_t queuedBytes() const {
    return out_.size() - outOff_;
  }
  /// The kernel refused part of the tail and EPOLLOUT is armed: every
  /// queued byte is waiting on the peer, not on a write attempt.
  [[nodiscard]] bool writeBlocked() const { return wantWrite_; }
  /// Bytes the send queue holds allocated (test hook: the queue compacts,
  /// so a slow reader cannot grow it without bound).
  [[nodiscard]] std::size_t queueCapacity() const { return out_.capacity(); }

  /// send calls made since the previous call; the owner sums them
  /// (ServerStats::tcpSendSyscalls).
  [[nodiscard]] std::uint64_t takeSendSyscalls();

  /// Next complete, checksum-verified frame. A recv chunk is pulled only
  /// when the buffered bytes hold no complete frame, so frames are handed
  /// out as each chunk lands and the buffer never grows to a whole socket
  /// drain. The view aliases the stream's buffer: consume it before the
  /// next call. nullopt when the socket is drained for this readiness
  /// event, or the stream failed() — the owner must then close it.
  [[nodiscard]] std::optional<wire::FrameView> next();

  /// EOF, a hard socket error, or lost framing seen by next().
  [[nodiscard]] bool failed() const { return failed_; }
  /// Framing was lost (a byte position where no frame can start).
  [[nodiscard]] bool corrupt() const { return in_.corrupt(); }

  /// Frames next() skipped for a failed checksum since the previous call
  /// (framing stayed intact, so the stream continues after them).
  [[nodiscard]] std::uint64_t takeSkippedFrames();

 private:
  void watchWritable(bool on);
  /// Appends one recv chunk to in_. False when the socket had nothing
  /// (EAGAIN) or failed (failed_ is then set).
  bool recvChunk();

  Reactor* reactor_ = nullptr;
  Socket socket_;
  wire::FrameBuffer in_;
  std::uint64_t skippedTaken_ = 0;
  bool failed_ = false;
  std::vector<std::uint8_t> out_;  ///< unsent tail; high-water capacity
  std::size_t outOff_ = 0;
  bool wantWrite_ = false;  ///< EPOLLOUT interest is on
  bool corked_ = false;     ///< between cork() and uncork()
  std::uint64_t sendSyscalls_ = 0;  ///< since the last takeSendSyscalls()
};

}  // namespace mci::live
