#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/check.hpp"

namespace mci::sim {

std::uint32_t EventQueue::acquireSlot() {
  if (freeHead_ != kNoSlot) {
    const std::uint32_t slot = freeHead_;
    freeHead_ = pool_[slot].nextFree;
    pool_[slot].nextFree = kNoSlot;
    return slot;
  }
  MCI_CHECK(pool_.size() < kMaxSlots)
      << "event pool exhausted: " << pool_.size()
      << " events pending at once";
  // MCI-ANALYZE-ALLOW(hot-path-alloc): pool grows to high-water mark only
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size() - 1);
}

void EventQueue::releaseSlot(std::uint32_t slot) {
  Slot& s = pool_[slot];
  s.id = kInvalidEventId;
  s.fn.reset();
  s.nextFree = freeHead_;
  freeHead_ = slot;
}

EventId EventQueue::push(SimTime at, EventFn fn) {
  MCI_CHECK(std::isfinite(at)) << "event time must be finite, got " << at;
  const std::uint32_t slot = acquireSlot();
  ++seq_;
  MCI_CHECK(seq_ < (EventId{1} << (64 - kSlotBits)))
      << "event sequence space exhausted after " << seq_ << " pushes";
  const EventId id = (seq_ << kSlotBits) | slot;
  pool_[slot].id = id;
  pool_[slot].fn = std::move(fn);
  // MCI-ANALYZE-ALLOW(hot-path-alloc): heap grows to high-water mark only
  heap_.push_back(HeapEntry{at, id, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_;
  MCI_DCHECK(heap_.size() >= live_)
      << "heap/live accounting out of sync after push";
  return id;
}

bool EventQueue::cancel(EventId id) {
  if (id == kInvalidEventId) return false;
  const std::uint32_t slot =
      static_cast<std::uint32_t>(id & (kMaxSlots - 1));
  // The slot check distinguishes "never existed"; the id check catches
  // already-fired, already-cancelled, and slot-recycled-by-a-later-push.
  if (slot >= pool_.size() || pool_[slot].id != id) return false;
  MCI_CHECK(live_ > 0) << "cancel() of pending event " << id
                       << " but live count is zero";
  releaseSlot(slot);  // the heap entry goes stale and is pruned at the top
  --live_;
  // Idle queue: flush leftover stale entries so heap occupancy returns to
  // zero (otherwise they'd stack the next burst on top of this one and push
  // the vector past its live high-water mark).
  if (live_ == 0) heap_.clear();
  return true;
}

SimTime EventQueue::nextTimeSlow() const {
  // Exact scan skipping stale entries; test-only (peekTime() is the O(1)
  // production path, but it prunes, and const callers cannot).
  SimTime best = kTimeInfinity;
  for (const HeapEntry& e : heap_) {
    if (!entryLive(e)) continue;
    if (e.time < best) best = e.time;
  }
  return best;
}

SimTime EventQueue::peekTime() {
  dropStaleTop();
  return heap_.empty() ? kTimeInfinity : heap_.front().time;
}

void EventQueue::requeueTop(SimTime at) {
  MCI_CHECK(std::isfinite(at) && at >= heap_.front().time)
      << "refire time " << at << " is not finite or is before the event's";
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.back().time = at;
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

EventQueue::Popped EventQueue::pop() {
  dropStaleTop();
  MCI_CHECK(!heap_.empty()) << "pop() on empty EventQueue";
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const HeapEntry e = heap_.back();
  heap_.pop_back();
  MCI_CHECK(live_ > 0) << "pop() with zero live events but non-empty heap";
  Slot& s = pool_[e.slot];
  MCI_DCHECK(s.id == e.id) << "heap top does not own its pool slot";
  Popped out{e.id, e.time, std::move(s.fn)};
  releaseSlot(e.slot);
  --live_;
  // Heap-order integrity: everything still queued fires no earlier than
  // what we just popped, so dispatch times are monotone between pushes.
  // (Holds for stale entries too: they were pushed before this pop.)
  MCI_DCHECK(heap_.empty() || heap_.front().time >= e.time)
      << "heap order violated: popped t=" << e.time << " but top is t="
      << heap_.front().time;
  if (live_ == 0) heap_.clear();  // flush stale leftovers at idle
  return out;
}

void EventQueue::clear() {
  heap_.clear();
  pool_.clear();
  freeHead_ = kNoSlot;
  live_ = 0;
}

void EventQueue::reserve(std::size_t events) {
  heap_.reserve(events);
  pool_.reserve(events);
}

void EventQueue::dropStaleTop() {
  while (!heap_.empty() && !entryLive(heap_.front())) {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
  }
}

}  // namespace mci::sim
