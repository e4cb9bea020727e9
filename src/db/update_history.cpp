#include "db/update_history.hpp"

#include <algorithm>

#include "core/check.hpp"

namespace mci::db {

UpdateHistory::UpdateHistory(std::size_t numItems) : nodes_(numItems) {}

void UpdateHistory::record(ItemId item, sim::SimTime now) {
  MCI_DCHECK(item < nodes_.size());
  MCI_DCHECK(now >= lastTime_);
  Node& n = nodes_[item];
  if (n.linked) {
    unlink(item);
  } else {
    ++distinct_;
  }
  n.lastTime = now;
  pushFront(item);
  lastTime_ = now;
  ++revision_;
}

void UpdateHistory::spliceRecord(ItemId item, sim::SimTime t) {
  MCI_DCHECK(item < nodes_.size());
  if (t == sim::kTimeEpoch) return;  // never updated: nothing to splice
  Node& n = nodes_[item];
  if (n.linked) {
    if (n.lastTime >= t) return;  // the local record is already newer
    unlink(item);
  } else {
    ++distinct_;
  }
  n.lastTime = t;
  // Find the insertion point from the oldest end: times ascend walking
  // tail -> head, and handoff times are old, so this stays a short walk.
  std::uint32_t after = tail_;
  while (after != kNone && nodes_[after].lastTime < t) {
    after = nodes_[after].prev;
  }
  if (after == kNone) {
    pushFront(item);
  } else {
    Node& a = nodes_[after];
    n.prev = after;
    n.next = a.next;
    if (a.next != kNone) {
      nodes_[a.next].prev = item;
    } else {
      tail_ = item;
    }
    a.next = item;
    n.linked = true;
  }
  lastTime_ = std::max(lastTime_, t);
  ++revision_;
}

std::vector<UpdateRecord> UpdateHistory::updatesAfter(sim::SimTime t) const {
  std::vector<UpdateRecord> out;
  updatesAfter(t, out);
  return out;
}

void UpdateHistory::updatesAfter(sim::SimTime t,
                                 std::vector<UpdateRecord>& out) const {
  // MCI-ANALYZE-ALLOW(hot-path-alloc): exact reserve into a caller-owned
  out.reserve(out.size() + countUpdatesAfter(t));  // scratch (high-water)
  for (std::uint32_t i = head_; i != kNone; i = nodes_[i].next) {
    if (nodes_[i].lastTime <= t) break;  // list sorted by lastTime desc
    // MCI-ANALYZE-ALLOW(hot-path-alloc): within the reserve above
    out.push_back(UpdateRecord{static_cast<ItemId>(i), nodes_[i].lastTime});
  }
}

std::size_t UpdateHistory::countUpdatesAfter(sim::SimTime t) const {
  std::size_t count = 0;
  for (std::uint32_t i = head_; i != kNone; i = nodes_[i].next) {
    if (nodes_[i].lastTime <= t) break;
    ++count;
  }
  return count;
}

std::vector<UpdateRecord> UpdateHistory::mostRecent(std::size_t k) const {
  std::vector<UpdateRecord> out;
  mostRecent(k, out);
  return out;
}

void UpdateHistory::mostRecent(std::size_t k,
                               std::vector<UpdateRecord>& out) const {
  // MCI-ANALYZE-ALLOW(hot-path-alloc): exact reserve into a caller-owned
  out.reserve(out.size() + std::min(k, distinct_));  // scratch (high-water)
  std::size_t taken = 0;
  for (std::uint32_t i = head_; i != kNone && taken < k; i = nodes_[i].next) {
    // MCI-ANALYZE-ALLOW(hot-path-alloc): within the reserve above
    out.push_back(UpdateRecord{static_cast<ItemId>(i), nodes_[i].lastTime});
    ++taken;
  }
}

sim::SimTime UpdateHistory::lastUpdateOf(ItemId item) const {
  MCI_DCHECK(item < nodes_.size());
  return nodes_[item].linked ? nodes_[item].lastTime : sim::kTimeEpoch;
}

void UpdateHistory::unlink(ItemId item) {
  Node& n = nodes_[item];
  MCI_DCHECK(n.linked);
  if (n.prev != kNone) nodes_[n.prev].next = n.next;
  if (n.next != kNone) nodes_[n.next].prev = n.prev;
  if (head_ == item) head_ = n.next;
  if (tail_ == item) tail_ = n.prev;
  n.prev = n.next = kNone;
  n.linked = false;
}

void UpdateHistory::pushFront(ItemId item) {
  Node& n = nodes_[item];
  MCI_DCHECK(!n.linked);
  n.prev = kNone;
  n.next = head_;
  if (head_ != kNone) nodes_[head_].prev = item;
  head_ = item;
  if (tail_ == kNone) tail_ = item;
  n.linked = true;
}

}  // namespace mci::db
