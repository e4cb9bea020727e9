// Reactor timers and fd dispatch, driven with real pipes and short real
// delays (a few milliseconds of wall time per test). The binary runs under
// a counting operator new, so a warmed reactor's timers are asserted, not
// assumed, to be allocation-free.

#include "live/reactor.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "live/clock.hpp"
#include "sim/time.hpp"

namespace {
std::atomic<std::uint64_t> gAllocs{0};
}  // namespace

// GCC pairs the inlined malloc-backed operator new with the free() below
// and misreports a mismatch; the pair is consistent by construction.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  gAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size != 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace mci::live {
namespace {

TEST(Reactor, OneShotTimerFiresOnce) {
  Reactor r;
  int fired = 0;
  (void)r.addTimer(0.002, 0, [&] { ++fired; });
  (void)r.addTimer(0.02, 0, [&r] { r.stop(); });
  r.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(r.timerCount(), 0u);
}

TEST(Reactor, PeriodicTimerFiresRepeatedlyAndCancels) {
  Reactor r;
  int fired = 0;
  Reactor::TimerHandle id = r.addTimer(0.002, 0.002, [&] { ++fired; });
  (void)r.addTimer(0.02, 0, [&] {
    EXPECT_TRUE(r.cancelTimer(id));
    r.stop();
  });
  r.run();
  EXPECT_GE(fired, 3);
  EXPECT_FALSE(r.cancelTimer(id));  // already gone
}

TEST(Reactor, TimersFireInDeadlineOrder) {
  Reactor r;
  std::vector<int> order;
  (void)r.addTimer(0.009, 0, [&] { order.push_back(3); });
  (void)r.addTimer(0.001, 0, [&] { order.push_back(1); });
  (void)r.addTimer(0.005, 0, [&] { order.push_back(2); });
  (void)r.addTimer(0.015, 0, [&r] { r.stop(); });
  r.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Reactor, HandlerMayCancelItselfAndAddNewTimers) {
  Reactor r;
  int chained = 0;
  // A one-shot timer that re-arms itself from inside its own handler is the
  // update-workload pattern in BroadcastServer.
  std::function<void()> rearm;
  Reactor::TimerHandle id;
  rearm = [&] {
    if (++chained < 3) id = r.addTimer(0.001, 0, rearm);
  };
  id = r.addTimer(0.001, 0, rearm);
  (void)id;
  (void)r.addTimer(0.02, 0, [&r] { r.stop(); });
  r.run();
  EXPECT_EQ(chained, 3);
}

TEST(Reactor, LatePeriodicTimerCatchesUpWithoutABurst) {
  Reactor r;
  int fired = 0;
  (void)r.addTimer(0.001, 0.001, [&] {
    ++fired;
    if (fired == 1) ::usleep(10000);  // stall 10 periods
  });
  (void)r.addTimer(0.015, 0, [&r] { r.stop(); });
  r.run();
  // The stall covered ~10 periods; catch-up must coalesce them into one
  // fire, not replay every missed deadline.
  EXPECT_LT(fired, 8);
  EXPECT_GE(fired, 2);
}

// A periodic timer is pending while its handler runs, so it can cancel
// itself; a one-shot is already gone from the queue when its handler runs.
TEST(Reactor, PeriodicTimerCancelsItselfFromItsOwnHandler) {
  Reactor r;
  int fired = 0;
  bool periodicCancel = false;
  bool oneShotCancel = true;
  Reactor::TimerHandle periodic;
  Reactor::TimerHandle oneShot;
  periodic = r.addTimer(0.001, 0.001, [&] {
    if (++fired == 2) periodicCancel = r.cancelTimer(periodic);
  });
  oneShot =
      r.addTimer(0.001, 0, [&] { oneShotCancel = r.cancelTimer(oneShot); });
  (void)r.addTimer(0.02, 0, [&r] { r.stop(); });
  r.run();
  EXPECT_TRUE(periodicCancel);
  EXPECT_EQ(fired, 2);  // never again after the cancel
  EXPECT_FALSE(oneShotCancel);
  EXPECT_EQ(r.timerCount(), 0u);
  EXPECT_FALSE(r.cancelTimer(periodic));
}

// Timers that fall due in one wake fire in deadline order, then in
// registration order: equal delays registered in turn fire in turn. A
// periodic timer's refire keeps the handle and the place of its first
// registration, so one-shots registered after it never overtake it.
TEST(Reactor, DueTimersFireInRegistrationOrderAndAPeriodicKeepsItsPlace) {
  Reactor r;
  std::vector<int> order;
  const Reactor::TimerHandle periodic =
      r.addTimer(0.001, 0.001, [&order] { order.push_back(0); });
  const auto oneShots = [&](int first, int last) {
    for (int i = first; i <= last; ++i) {
      (void)r.addTimer(0.001, 0, [&order, i] { order.push_back(i); });
    }
    ::usleep(3000);  // everything registered so far is due at the next wake
    r.runOnce(100);
  };
  oneShots(1, 4);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  oneShots(5, 6);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 0, 5, 6}));
  EXPECT_TRUE(r.cancelTimer(periodic));
  EXPECT_EQ(r.timerCount(), 0u);
}

// The timerfd is armed relative to now: a head deadline too far away for
// the nanosecond count is armed at the clamp and re-read on the next wake.
TEST(Reactor, FarDeadlineNeitherFiresNorOverflowsTheTimerfd) {
  Reactor r;
  bool fired = false;
  const Reactor::TimerHandle far = r.addTimer(1e10, 0, [&] { fired = true; });
  r.runOnce(1);
  EXPECT_FALSE(fired);
  EXPECT_EQ(r.timerCount(), 1u);
  EXPECT_TRUE(r.cancelTimer(far));
  EXPECT_EQ(r.timerCount(), 0u);
}

// Timers live in the simulator's slot-pool queue with inline handlers, so
// once warmed, arming, firing and cancelling never touch the heap.
TEST(Reactor, WarmedTimersAddFireAndCancelWithoutAllocating) {
  Reactor r;
  int fired = 0;
  int cancelled = 0;
  const auto cycle = [&] {
    const int before = fired;
    (void)r.addTimer(0, 0, [&fired] { ++fired; });
    while (fired == before) r.runOnce(100);
    const Reactor::TimerHandle t = r.addTimer(1.0, 0, [&fired] { ++fired; });
    if (r.cancelTimer(t)) ++cancelled;
  };
  for (int i = 0; i < 10; ++i) cycle();
  const std::uint64_t allocsBefore = gAllocs.load();
  for (int i = 0; i < 1000; ++i) cycle();
  const std::uint64_t allocs = gAllocs.load() - allocsBefore;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 1010);
  EXPECT_EQ(cancelled, 1010);
  EXPECT_EQ(r.timerCount(), 0u);
}

TEST(Reactor, FdHandlerSeesReadableEvents) {
  Reactor r;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  std::string got;
  const Reactor::FdHandle reg =
      r.addFd(fds[0], EPOLLIN, [&](std::uint32_t events) {
    EXPECT_TRUE(events & EPOLLIN);
    char buf[16];
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    ASSERT_GT(n, 0);
    got.assign(buf, static_cast<std::size_t>(n));
    r.stop();
  });
  ASSERT_EQ(::write(fds[1], "ping", 4), 4);
  r.run();
  EXPECT_EQ(got, "ping");
  r.removeFd(reg);
  EXPECT_EQ(r.fdCount(), 0u);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Reactor, HandlerMayRemoveItsOwnFd) {
  Reactor r;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int calls = 0;
  (void)r.addFd(fds[0], EPOLLIN, [&](std::uint32_t) {
    ++calls;
    r.removeFd(fds[0]);
    ::close(fds[0]);
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  (void)r.addTimer(0.01, 0, [&r] { r.stop(); });
  r.run();
  EXPECT_EQ(calls, 1);
  ::close(fds[1]);
}

TEST(Reactor, OwnerCountsRegistrationsAndRetiresClean) {
  Reactor r;
  const Reactor::OwnerId owner = r.makeOwner();
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  const Reactor::FdHandle reg =
      r.addFd(fds[0], EPOLLIN, [](std::uint32_t) {}, owner);
  const Reactor::TimerHandle t = r.addTimer(1.0, 0, [] {}, owner);
  EXPECT_EQ(r.ownedCount(owner), 2u);
  r.removeFd(reg);
  EXPECT_TRUE(r.cancelTimer(t));
  EXPECT_EQ(r.ownedCount(owner), 0u);
  // Clean teardown: in MCI_ENABLE_DCHECKS builds this aborts if any
  // registration tagged with `owner` were still live.
  r.retireOwner(owner);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(Reactor, RunOnceWithTimeoutReturnsWithNothingPending) {
  Reactor r;
  r.runOnce(1);  // must not hang or crash with no fds or timers
  EXPECT_EQ(r.timerCount(), 0u);
}

// A LiveClock owns no clock: its tick is the reactor's nowSeconds() times
// the scale, on the grid, so it moves exactly as far as the reactor's
// deadline clock does. Reads are bracketed by the reactor's own readings;
// both clocks are one monotonic source, so the bracket cannot flake.
TEST(Reactor, LiveClockFollowsTheReactorClockTimesTheScale) {
  Reactor r;
  const LiveClock clock(r, 60.0);
  const LiveClock twin(r, 60.0);
  const auto expectBracketed = [&] {
    const double before = r.nowSeconds();
    const std::uint64_t tick = clock.nowTick();
    const double after = r.nowSeconds();
    EXPECT_GE(tick, sim::toTick(before * 60.0));
    EXPECT_LE(tick, sim::toTick(after * 60.0));
    EXPECT_LE(tick, twin.nowTick());  // a second clock, the same epoch
  };
  expectBracketed();
  (void)r.addTimer(0.02, 0, [&r] { r.stop(); });
  r.run();
  // 20 ms of wall time is at least 1.2 model seconds at x60.
  EXPECT_GE(clock.nowTick(), 1200u);
  expectBracketed();
  EXPECT_EQ(clock.wallDelay(20.0), 20.0 / 60.0);
}

}  // namespace
}  // namespace mci::live
