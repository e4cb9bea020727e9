#include "net/link.hpp"

#include <utility>

#include "core/check.hpp"

namespace mci::net {

PriorityLink::PriorityLink(sim::Simulator& simulator, BitsPerSecond bandwidth)
    : sim_(simulator), bandwidth_(bandwidth) {
  MCI_CHECK(bandwidth_ > 0);
}

void PriorityLink::submit(TrafficClass cls, Bits size, DeliveryFn onDone) {
  MCI_DCHECK(size > 0);
  Transfer t{cls, size, std::move(onDone)};
  if (!current_.active) {
    begin(std::move(t));
    return;
  }
  if (static_cast<int>(cls) < static_cast<int>(current_.transfer.cls)) {
    preemptCurrent();
    begin(std::move(t));
    return;
  }
  queues_[static_cast<std::size_t>(cls)].push_back(std::move(t));
}

std::size_t PriorityLink::queuedTransfers() const {
  std::size_t n = 0;
  for (const auto& q : queues_) n += q.size();
  return n;
}

double PriorityLink::busySeconds(TrafficClass cls) const {
  double total = busySeconds_[static_cast<std::size_t>(cls)];
  // Include the in-flight portion of the current transfer.
  if (current_.active && current_.transfer.cls == cls) {
    total += sim_.now() - current_.startedAt;
  }
  return total;
}

int PriorityLink::highestNonEmptyClass() const {
  for (int c = 0; c < kNumTrafficClasses; ++c) {
    if (!queues_[static_cast<std::size_t>(c)].empty()) return c;
  }
  return -1;
}

void PriorityLink::startNext() {
  MCI_DCHECK(!current_.active);
  const int c = highestNonEmptyClass();
  if (c < 0) return;
  auto& q = queues_[static_cast<std::size_t>(c)];
  Transfer t = std::move(q.front());
  q.pop_front();
  begin(std::move(t));
}

void PriorityLink::begin(Transfer t) {
  MCI_DCHECK(!current_.active);
  current_.active = true;
  current_.transfer = std::move(t);
  current_.startedAt = sim_.now();
  const double duration = transmitSeconds(current_.transfer.remaining, bandwidth_);
  current_.completion = sim_.schedule(duration, [this] { complete(); });
}

void PriorityLink::preemptCurrent() {
  MCI_DCHECK(current_.active);
  const bool cancelled = sim_.cancel(current_.completion);
  MCI_DCHECK(cancelled)
      << "completion event must still be pending on preemption";
  (void)cancelled;
  const double elapsed = sim_.now() - current_.startedAt;
  const Bits sent = elapsed * bandwidth_;
  const auto idx = static_cast<std::size_t>(current_.transfer.cls);
  busySeconds_[idx] += elapsed;
  deliveredBits_[idx] += sent;  // partial progress still crossed the air
  Transfer t = std::move(current_.transfer);
  t.remaining -= sent;
  if (t.remaining < 0) t.remaining = 0;
  current_.active = false;
  current_.completion = sim::kInvalidEventId;
  // Resume-from-front: the preempted transfer goes back at the head of its
  // class so FIFO order within the class is preserved.
  queues_[idx].push_front(std::move(t));
}

void PriorityLink::complete() {
  MCI_DCHECK(current_.active);
  const auto idx = static_cast<std::size_t>(current_.transfer.cls);
  busySeconds_[idx] += sim_.now() - current_.startedAt;
  deliveredBits_[idx] += current_.transfer.remaining;
  ++deliveredCount_[idx];
  DeliveryFn done = std::move(current_.transfer.onDone);
  current_.active = false;
  current_.completion = sim::kInvalidEventId;
  // Start the next transfer before running the callback: the callback may
  // submit new work, which must queue behind already-waiting transfers.
  startNext();
  if (done) done();
}

}  // namespace mci::net
