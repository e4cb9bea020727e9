#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/annotations.hpp"
#include "sim/event.hpp"
#include "sim/time.hpp"

namespace mci::sim {

/// Priority queue of timed events with O(log n) push/pop and O(1)
/// cancellation. Events at equal times fire in scheduling (FIFO) order,
/// which keeps simulations deterministic regardless of heap layout.
///
/// Storage is a binary heap of 16-byte (time, id, slot) entries over a
/// free-list pool of callback slots. Cancelled and popped slots go back on
/// the free list, so in steady state push/pop/cancel never allocate; the
/// heap and pool only grow to the high-water mark of concurrently pending
/// events. An event id encodes its pool slot in the low kSlotBits bits and
/// a monotone sequence number above them — the sequence keeps ids unique
/// and FIFO-ordered, the slot makes cancel() a single array probe, and a
/// heap entry whose id no longer matches its slot's is stale (already
/// cancelled) and is pruned when it surfaces at the top.
class EventQueue {
 public:
  /// Low bits of an EventId that address the slot pool: up to ~16.7M events
  /// pending at once, and 2^40 pushes before the sequence space is spent.
  static constexpr unsigned kSlotBits = 24;

  /// Schedules `fn` at absolute time `at`. Returns a handle usable with
  /// cancel(). `at` must be finite.
  MCI_HOT EventId push(SimTime at, EventFn fn);

  /// Cancels a pending event. Returns true if the event was still pending
  /// (it will not fire); false if it already fired, was already cancelled,
  /// or never existed. O(1).
  [[nodiscard]] MCI_HOT bool cancel(EventId id);

  /// True if no live (non-cancelled) events remain.
  [[nodiscard]] bool empty() const { return live_ == 0; }

  /// Number of live events.
  [[nodiscard]] std::size_t size() const { return live_; }

  /// Time of the earliest live event; kTimeInfinity when empty.
  /// O(n) exact scan over the whole heap — test-only; production idle
  /// checks go through peekTime().
  [[nodiscard]] SimTime nextTimeSlow() const;

  /// Time of the earliest live event; kTimeInfinity when empty.
  /// Amortized O(1): prunes stale (cancelled) entries from the heap top.
  MCI_HOT SimTime peekTime();

  /// Pops and returns the earliest live event. Precondition: !empty().
  struct Popped {
    EventId id{kInvalidEventId};
    SimTime time{0};
    EventFn fn;
  };
  MCI_HOT Popped pop();

  /// Pops the earliest event and calls its fn, unless `refire(id, time)`
  /// names a finite time: then the event is re-queued there under its own
  /// id and slot before the call, so it keeps its FIFO place and the fn
  /// may cancel() it, and the fn goes back unless it did. The fn must not
  /// clear() the queue. Precondition: !empty().
  template <typename Refire>
  void fire(Refire&& refire) {
    MCI_CHECK(peekTime() != kTimeInfinity) << "fire() on empty EventQueue";
    const HeapEntry top = heap_.front();
    const SimTime next = refire(top.id, top.time);
    if (next == kTimeInfinity) return pop().fn();
    requeueTop(next);
    EventFn fn = std::move(pool_[top.slot].fn);
    fn();
    if (pool_[top.slot].id == top.id) pool_[top.slot].fn = std::move(fn);
  }

  /// Removes all events. Keeps the sequence counter (ids stay unique) but
  /// releases the heap/pool storage.
  void clear();

  /// Pre-sizes the heap and slot pool for `events` concurrently pending
  /// events, so the first simulation interval does not pay growth
  /// reallocations either.
  void reserve(std::size_t events);

  /// Slots ever allocated: the pool's high-water mark, above every slot.
  [[nodiscard]] std::size_t poolSlots() const { return pool_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  static constexpr std::uint32_t kMaxSlots = std::uint32_t{1} << kSlotBits;

  struct HeapEntry {
    SimTime time;
    EventId id;
    std::uint32_t slot;
  };
  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;  // FIFO among equal times (ids are monotone)
    }
  };
  struct Slot {
    EventFn fn;
    /// Id of the pending event occupying this slot; kInvalidEventId when
    /// the slot is free (then nextFree links the free list).
    EventId id = kInvalidEventId;
    std::uint32_t nextFree = kNoSlot;
  };

  [[nodiscard]] std::uint32_t acquireSlot();
  void releaseSlot(std::uint32_t slot);
  /// True iff the heap entry still refers to a pending event (its slot was
  /// not cancelled and not recycled by a later push).
  [[nodiscard]] bool entryLive(const HeapEntry& e) const {
    return pool_[e.slot].id == e.id;
  }
  void dropStaleTop();
  /// Moves the earliest live entry to `at`, keeping its id and slot.
  void requeueTop(SimTime at);

  std::vector<HeapEntry> heap_;
  std::vector<Slot> pool_;
  std::uint32_t freeHead_ = kNoSlot;
  EventId seq_ = 0;  // sequence number of the most recent push
  std::size_t live_ = 0;
};

}  // namespace mci::sim
