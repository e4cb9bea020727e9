#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "live/reactor.hpp"
#include "live/wire.hpp"

namespace mci::live {

/// Dials ipv4:port (host byte order) for a framed uplink: TCP_NODELAY, a
/// blocking connect (one round trip on loopback), then O_NONBLOCK for
/// every later send and recv. Returns the connected fd, or -1 (nothing
/// left open) when any step fails.
[[nodiscard]] int dialTcp(std::uint32_t ipv4, std::uint16_t port);

/// Opens a nonblocking IR downlink socket. mcastIpv4 != 0 binds the group
/// port (shared through SO_REUSEADDR by every listener on the host) and
/// joins the group on interface `ipv4`; otherwise the socket is bound to
/// an ephemeral loopback port, which the Hello then names. Throws
/// std::runtime_error on failure.
[[nodiscard]] int openDownlinkUdp(std::uint32_t ipv4, std::uint32_t mcastIpv4,
                                  std::uint16_t mcastPort);

/// One framed TCP connection: a connected nonblocking fd, the reassembly
/// buffer of its read side and the unsent tail of its write side. Every
/// live endpoint (server connections, reshard handoff channels, client
/// agents, the swarm mux) speaks the uplink through this class.
///
/// The owner registers the fd with its Reactor for EPOLLIN (keeping the
/// handle and owner tag) before the first send(), and removes it before
/// close(). The stream only toggles EPOLLOUT interest through modifyFd:
/// on while a tail is queued, off once flush() drains it.
///
/// Errors are return values, never callbacks: send() and flush() return
/// false on a hard socket error, and next() ends with failed() set on EOF,
/// a hard error or lost framing. The owner then runs its own close policy.
class FrameStream {
 public:
  FrameStream() = default;
  ~FrameStream() { close(); }

  FrameStream(const FrameStream&) = delete;
  FrameStream& operator=(const FrameStream&) = delete;
  FrameStream(FrameStream&&) = delete;
  FrameStream& operator=(FrameStream&&) = delete;

  /// Takes ownership of a connected nonblocking `fd` registered (or about
  /// to be) with `reactor`. A stream adopts at most one fd in its life.
  void adopt(Reactor& reactor, int fd);

  [[nodiscard]] bool isOpen() const { return fd_ >= 0; }

  /// Closes the fd and drops any unsent tail; the read side's counters
  /// survive. The owner must have removed its registration first.
  void close();

  /// Sends one frame given as header bytes then payload bytes (a finished
  /// FrameArena is a single span with an empty payload). With nothing
  /// queued, one sendmsg puts both on the wire from the caller's buffers
  /// and only the unsent tail is copied; behind a queued tail the frame is
  /// appended whole, keeping order, for flush() to drain. False on a hard
  /// socket error (no SIGPIPE).
  [[nodiscard]] bool send(std::span<const std::uint8_t> head,
                          std::span<const std::uint8_t> payload = {});

  /// Writes the queued tail on EPOLLOUT; drops EPOLLOUT interest once it
  /// is empty. False on a hard socket error.
  [[nodiscard]] bool flush();

  /// Bytes accepted by send() that the kernel has not taken yet.
  [[nodiscard]] std::size_t queuedBytes() const {
    return out_.size() - outOff_;
  }

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
  int fd_ = -1;
  wire::FrameBuffer in_;
  std::uint64_t skippedTaken_ = 0;
  bool failed_ = false;
  std::vector<std::uint8_t> out_;  ///< unsent tail; high-water capacity
  std::size_t outOff_ = 0;
  bool wantWrite_ = false;  ///< EPOLLOUT interest is on
};

}  // namespace mci::live
