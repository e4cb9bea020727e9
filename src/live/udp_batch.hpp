#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/annotations.hpp"

namespace mci::live {

/// Batched UDP syscall backend: `sendmmsg` for the per-tick IR fan-out and
/// `recvmmsg` for draining client downlinks, so one tick to N clients
/// costs O(N / kBatch) kernel entries instead of O(N).
///
/// Availability is probed once at first use (`available()`): a kernel,
/// seccomp filter or emulation layer without the syscalls answers ENOSYS.
/// Both sides then fall back by themselves, and for good: the sender to a
/// sendto loop, the receiver to single recv calls. Behaviour is identical
/// either way — only the syscall count changes.
class UdpBatchSender {
 public:
  /// Datagrams per sendmmsg call (bounds the reused header/iovec arrays).
  static constexpr unsigned kBatch = 64;

  struct Result {
    std::uint64_t syscalls = 0;  ///< kernel entries this fan-out cost
    std::uint64_t sent = 0;      ///< datagrams the kernel accepted
    std::uint64_t failed = 0;    ///< datagrams refused (counted, dropped)
  };

  /// True when the running kernel accepts sendmmsg/recvmmsg. Probed once;
  /// a false answer routes both sides to their fallback loops for good.
  [[nodiscard]] static bool available();

  /// Sends the same [data, data+len) datagram to every destination,
  /// kBatch at a time, or one sendto each once the kernel has refused
  /// sendmmsg. Non-blocking; refused datagrams are dropped and counted (IR
  /// is lossy by the paper's model — clients resync from the next report).
  MCI_HOT Result sendToMany(int fd, const std::uint8_t* data,
                            std::size_t len,
                            const std::vector<const sockaddr_in*>& dests);

 private:
  // Reused across calls and ticks: zero steady-state allocation.
  std::array<mmsghdr, kBatch> hdrs_{};
  std::array<iovec, kBatch> iovs_{};
  bool sendFellBack_ = !available();  ///< sendmmsg refused: sendto from now on
};

/// recvmmsg drain buffer, shared per pool (kBatch * 64 KiB once, not per
/// agent): one kernel entry pulls up to kBatch datagrams off a downlink.
class UdpBatchReceiver {
 public:
  static constexpr unsigned kBatch = 16;
  static constexpr std::size_t kDatagramBytes = 1 << 16;

  struct Datagram {
    const std::uint8_t* data = nullptr;
    std::size_t len = 0;
  };

  UdpBatchReceiver();

  /// Drains nonblocking `fd`, handing every datagram in arrival order to
  /// `onDatagram(const std::uint8_t* data, std::size_t len) -> bool`; a
  /// false return stops the drain (the handler closed `fd`). Batches go
  /// through recvmmsg; once the kernel refuses it (ENOSYS) this receiver
  /// drains with single recv calls for good. A short batch ends the drain:
  /// the socket was empty then, and level-triggered epoll reports anything
  /// that lands later. Returns the kernel entries spent (one per recvmmsg
  /// or recv call).
  template <typename OnDatagram>
  MCI_HOT std::uint64_t drain(int fd, OnDatagram&& onDatagram) {
    std::uint64_t syscalls = 0;
    bool more = true;
    while (more) {
      ++syscalls;
      const int n = receiveNext(fd, more);
      for (int i = 0; i < n; ++i) {
        const Datagram d = datagram(i);
        if (!onDatagram(d.data, d.len)) return syscalls;
      }
    }
    return syscalls;
  }

  /// One recvmmsg: up to kBatch datagrams into the internal buffers.
  /// Returns the count (0 = drained / would-block / transient error).
  /// Sets `fellBack` when the kernel refused the syscall (ENOSYS) — the
  /// caller must drain with single recv() calls instead.
  [[nodiscard]] MCI_HOT int receive(int fd, bool& fellBack);

  /// The i-th datagram of the last receive() (valid until the next call).
  [[nodiscard]] Datagram datagram(int i) const;

 private:
  /// One kernel entry of drain(): a recvmmsg batch, or a single recv into
  /// slot 0 after the sticky fallback. `more` is false once the socket is
  /// known to be empty.
  MCI_HOT int receiveNext(int fd, bool& more);

  std::vector<std::uint8_t> storage_;  ///< kBatch contiguous slots
  std::array<mmsghdr, kBatch> hdrs_{};
  std::array<iovec, kBatch> iovs_{};
  bool recvFellBack_ = false;  ///< recvmmsg refused: single recv from now on
};

}  // namespace mci::live
