#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace mci::sim {
namespace {

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.nextTimeSlow(), kTimeInfinity);
  EXPECT_EQ(q.peekTime(), kTimeInfinity);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(3.0, [&] { fired.push_back(3); });
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, EqualTimesFireInFifoOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 16; ++i) {
    q.push(5.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(fired[i], i);
}

TEST(EventQueue, PopReturnsTimeAndId) {
  EventQueue q;
  const EventId id = q.push(7.5, [] {});
  auto popped = q.pop();
  EXPECT_EQ(popped.id, id);
  EXPECT_DOUBLE_EQ(popped.time, 7.5);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterPopReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  (void)q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelUnknownIdReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(kInvalidEventId));
  EXPECT_FALSE(q.cancel(12345));
}

TEST(EventQueue, CancelledEventIsSkippedByPop) {
  EventQueue q;
  std::vector<int> fired;
  q.push(1.0, [&] { fired.push_back(1); });
  const EventId id = q.push(2.0, [&] { fired.push_back(2); });
  q.push(3.0, [&] { fired.push_back(3); });
  EXPECT_TRUE(q.cancel(id));
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, SizeCountsOnlyLiveEvents) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_EQ(q.size(), 2u);
  EXPECT_TRUE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, PeekTimeSkipsCancelledTop) {
  EventQueue q;
  const EventId a = q.push(1.0, [] {});
  q.push(2.0, [] {});
  EXPECT_TRUE(q.cancel(a));
  EXPECT_DOUBLE_EQ(q.peekTime(), 2.0);
  EXPECT_DOUBLE_EQ(q.nextTimeSlow(), 2.0);
}

TEST(EventQueue, ClearRemovesEverything) {
  EventQueue q;
  q.push(1.0, [] {});
  q.push(2.0, [] {});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peekTime(), kTimeInfinity);
}

TEST(EventQueue, ReuseAfterClear) {
  EventQueue q;
  q.push(1.0, [] {});
  q.clear();
  bool fired = false;
  q.push(2.0, [&] { fired = true; });
  q.pop().fn();
  EXPECT_TRUE(fired);
}

// fire() with a finite refire time keeps the event pending under its own
// id and slot: it keeps its FIFO place among equal times, and its fn is
// back for the next fire unless the call cancelled the event, even when
// the call pushed a new event into the freed slot.
TEST(EventQueue, FireRequeuesTheEventUnderItsOwnIdUntilItsCallCancelsIt) {
  EventQueue q;
  std::vector<int> fired;
  EventId periodic = kInvalidEventId;
  periodic = q.push(1.0, [&] {
    fired.push_back(0);
    if (fired.size() == 4) {
      EXPECT_TRUE(q.cancel(periodic));
      q.push(9.0, [&fired] { fired.push_back(2); });  // takes the slot
    }
  });
  q.push(2.0, [&fired] { fired.push_back(1); });
  const auto everySecond = [&periodic](EventId id, SimTime t) {
    return id == periodic ? t + 1.0 : kTimeInfinity;
  };
  q.fire(everySecond);  // t=1; re-queued at 2, ahead of the later push
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.peekTime(), 2.0);
  q.fire(everySecond);  // t=2, the periodic event: its id is older
  q.fire(everySecond);  // t=2, the one-shot, released
  EXPECT_EQ(fired, (std::vector<int>{0, 0, 1}));
  EXPECT_EQ(q.size(), 1u);
  q.fire(everySecond);  // t=3: the periodic event cancels itself
  EXPECT_FALSE(q.cancel(periodic));
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.peekTime(), 9.0);
  q.fire(everySecond);  // the new event's own fn, not the cancelled one's
  EXPECT_EQ(fired, (std::vector<int>{0, 0, 1, 0, 2}));
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.poolSlots(), 2u);
}

// Property: against a reference model under random pushes/cancels/pops,
// the queue must deliver exactly the non-cancelled events in (time, seq)
// order.
TEST(EventQueue, RandomizedAgainstReferenceModel) {
  std::mt19937_64 rng(1234);
  for (int round = 0; round < 20; ++round) {
    EventQueue q;
    struct Ref {
      double time;
      EventId id;
      bool cancelled = false;
    };
    std::vector<Ref> ref;
    std::vector<EventId> popped;

    for (int op = 0; op < 300; ++op) {
      const auto dice = rng() % 10;
      if (dice < 6 || q.empty()) {
        const double t = static_cast<double>(rng() % 1000) / 10.0;
        const EventId id = q.push(t, [] {});
        ref.push_back({t, id});
      } else if (dice < 8 && !ref.empty()) {
        Ref& victim = ref[rng() % ref.size()];
        const bool live =
            !victim.cancelled &&
            std::none_of(popped.begin(), popped.end(),
                         [&](EventId e) { return e == victim.id; });
        EXPECT_EQ(q.cancel(victim.id), live);
        victim.cancelled = true;
      } else {
        popped.push_back(q.pop().id);
      }
    }
    while (!q.empty()) popped.push_back(q.pop().id);

    // No event fires twice, and nothing live is lost: every pushed event
    // was either popped or successfully cancelled (cancel flips
    // `cancelled`, and the EXPECT above verified cancel() told the truth).
    std::vector<EventId> sorted = popped;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end())
        << "an event fired twice";
    std::size_t expectedPops = 0;
    for (const Ref& r : ref) {
      const bool wasPopped =
          std::find(popped.begin(), popped.end(), r.id) != popped.end();
      if (wasPopped) ++expectedPops;
      EXPECT_TRUE(wasPopped || r.cancelled)
          << "event " << r.id << " vanished without firing or cancellation";
    }
    EXPECT_EQ(popped.size(), expectedPops);
  }
}

}  // namespace
}  // namespace mci::sim
