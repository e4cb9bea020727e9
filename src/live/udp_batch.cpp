#include "live/udp_batch.hpp"

#include <cerrno>

#include <algorithm>

#include "core/check.hpp"

namespace mci::live {
namespace {

bool probeBatchedSyscalls() {
  // sendmmsg on an invalid fd: a kernel that has the syscall answers
  // EBADF; one without it (or a seccomp filter / emulation layer that
  // blocks it) answers ENOSYS. Either way nothing is sent.
  const int rc = ::sendmmsg(-1, nullptr, 0, 0);
  return !(rc < 0 && errno == ENOSYS);
}

}  // namespace

bool UdpBatchSender::available() {
  static const bool ok = probeBatchedSyscalls();
  return ok;
}

UdpBatchSender::Result UdpBatchSender::sendToMany(
    int fd, const std::uint8_t* data, std::size_t len,
    const std::vector<const sockaddr_in*>& dests) {
  Result res;
  std::size_t i = 0;
  while (i < dests.size() && !sendFellBack_) {
    const auto n =
        static_cast<unsigned>(std::min<std::size_t>(kBatch, dests.size() - i));
    for (unsigned j = 0; j < n; ++j) {
      iovs_[j].iov_base = const_cast<std::uint8_t*>(data);
      iovs_[j].iov_len = len;
      mmsghdr& m = hdrs_[j];
      m.msg_hdr = {};
      // The sockaddr is read, not written; the API is just not const.
      m.msg_hdr.msg_name =
          const_cast<sockaddr_in*>(dests[i + static_cast<std::size_t>(j)]);
      m.msg_hdr.msg_namelen = sizeof(sockaddr_in);
      m.msg_hdr.msg_iov = &iovs_[j];
      m.msg_hdr.msg_iovlen = 1;
      m.msg_len = 0;
    }
    ++res.syscalls;
    // MCI-ANALYZE-ALLOW(reactor-blocking): MSG_DONTWAIT, never blocks
    const int sent = ::sendmmsg(fd, hdrs_.data(), n, MSG_DONTWAIT);
    if (sent < 0) {
      if (errno == ENOSYS) {
        sendFellBack_ = true;  // the sendto loop below sends the rest
        break;
      }
      // First datagram of the batch was refused (EAGAIN: socket buffer
      // full, or a transient error). Drop it — same outcome as a failed
      // sendto in the classic loop — and continue with the rest.
      ++res.failed;
      ++i;
      continue;
    }
    res.sent += static_cast<std::uint64_t>(sent);
    i += static_cast<std::size_t>(sent);
    if (static_cast<unsigned>(sent) < n) {
      // sendmmsg stops at the first datagram it cannot send; count that
      // one failed and resume after it so one wedged destination cannot
      // starve the rest of the fan-out.
      ++res.failed;
      ++i;
    }
  }
  for (; i < dests.size(); ++i) {
    ++res.syscalls;
    const ssize_t n = ::sendto(fd, data, len, MSG_DONTWAIT,
                               reinterpret_cast<const sockaddr*>(dests[i]),
                               sizeof(sockaddr_in));
    if (n < 0) {
      ++res.failed;
    } else {
      ++res.sent;
    }
  }
  return res;
}

UdpBatchReceiver::UdpBatchReceiver()
    : storage_(static_cast<std::size_t>(kBatch) * kDatagramBytes),
      recvFellBack_(!UdpBatchSender::available()) {
  for (unsigned j = 0; j < kBatch; ++j) {
    iovs_[j].iov_base =
        storage_.data() + static_cast<std::size_t>(j) * kDatagramBytes;
    iovs_[j].iov_len = kDatagramBytes;
  }
}

int UdpBatchReceiver::receive(int fd, bool& fellBack) {
  fellBack = false;
  for (unsigned j = 0; j < kBatch; ++j) {
    hdrs_[j].msg_hdr = {};
    hdrs_[j].msg_hdr.msg_iov = &iovs_[j];
    hdrs_[j].msg_hdr.msg_iovlen = 1;
    hdrs_[j].msg_len = 0;
  }
  // MCI-ANALYZE-ALLOW(reactor-blocking): MSG_DONTWAIT, never blocks
  const int n = ::recvmmsg(fd, hdrs_.data(), kBatch, MSG_DONTWAIT, nullptr);
  if (n < 0) {
    if (errno == ENOSYS) fellBack = true;
    return 0;  // drained (EAGAIN) or transient error: same as a recv loop
  }
  return n;
}

int UdpBatchReceiver::receiveNext(int fd, bool& more) {
  if (!recvFellBack_) {
    const int n = receive(fd, recvFellBack_);
    // An ENOSYS batch received nothing; go round again with recv.
    more = recvFellBack_ || n == static_cast<int>(kBatch);
    return n;
  }
  const ssize_t n = ::recv(fd, storage_.data(), kDatagramBytes, MSG_DONTWAIT);
  more = n > 0;
  hdrs_[0].msg_len = n > 0 ? static_cast<unsigned>(n) : 0;
  return n > 0 ? 1 : 0;
}

UdpBatchReceiver::Datagram UdpBatchReceiver::datagram(int i) const {
  MCI_CHECK(i >= 0 && static_cast<unsigned>(i) < kBatch)
      << "datagram index out of range";
  Datagram d;
  d.data = storage_.data() + static_cast<std::size_t>(i) * kDatagramBytes;
  d.len = hdrs_[static_cast<std::size_t>(i)].msg_len;
  return d;
}

}  // namespace mci::live
