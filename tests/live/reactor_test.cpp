// Reactor timers and fd dispatch, driven with real pipes and short real
// delays (a few milliseconds of wall time per test).

#include "live/reactor.hpp"

#include <sys/epoll.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "live/clock.hpp"
#include "sim/time.hpp"

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
