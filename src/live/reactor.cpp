#include "live/reactor.hpp"

#include <sys/epoll.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/check.hpp"

namespace mci::live {

Reactor::Reactor() {
  epollFd_ = ::epoll_create1(EPOLL_CLOEXEC);
  timerFd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (epollFd_ >= 0 && timerFd_ >= 0) {
    ::epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = timerFd_;
    ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, timerFd_, &ev);
  }
}

Reactor::~Reactor() {
  if (timerFd_ >= 0) ::close(timerFd_);
  if (epollFd_ >= 0) ::close(epollFd_);
}

Reactor::OwnerId Reactor::makeOwner() {
  const OwnerId id = nextOwnerId_++;
  liveOwners_.insert(id);
  return id;
}

void Reactor::retireOwner(OwnerId owner) {
  if (owner == 0) return;
  // The owning object is going away: any registration still tagged with it
  // is a callback that can fire into freed memory.
  MCI_DCHECK(ownedCount(owner) == 0)
      << "retireOwner(" << owner << ") with " << ownedCount(owner)
      << " registration(s) still live";
  liveOwners_.erase(owner);
}

std::size_t Reactor::ownedCount(OwnerId owner) const {
  std::size_t n = 0;
  for (const auto& [fd, entry] : fds_) {
    if (entry.owner == owner) ++n;
  }
  for (const TimerMeta& timer : timerMeta_) {
    if (timer.id != sim::kInvalidEventId && timer.owner == owner) ++n;
  }
  return n;
}

Reactor::FdHandle Reactor::addFd(int fd, std::uint32_t events,
                                 FdHandler handler, OwnerId owner) {
  MCI_DCHECK(ownerLive(owner)) << "addFd with retired owner " << owner;
  ::epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epollFd_, EPOLL_CTL_ADD, fd, &ev);
  fds_[fd] = FdEntry{std::move(handler), owner};
  return FdHandle{fd};
}

void Reactor::modifyFd(int fd, std::uint32_t events) {
  ::epoll_event ev{};
  ev.events = events;
  ev.data.fd = fd;
  ::epoll_ctl(epollFd_, EPOLL_CTL_MOD, fd, &ev);
}

void Reactor::removeFd(int fd) {
  ::epoll_ctl(epollFd_, EPOLL_CTL_DEL, fd, nullptr);
  fds_.erase(fd);
}

Reactor::TimerMeta& Reactor::metaOf(TimerId id) {
  return timerMeta_[id & ((TimerId{1} << sim::EventQueue::kSlotBits) - 1)];
}

Reactor::TimerHandle Reactor::addTimer(double delaySeconds,
                                       double periodSeconds,
                                       TimerHandler handler, OwnerId owner) {
  MCI_DCHECK(ownerLive(owner)) << "addTimer with retired owner " << owner;
  MCI_CHECK(std::isfinite(delaySeconds) && std::isfinite(periodSeconds) &&
            delaySeconds >= 0 && periodSeconds >= 0)
      << "timer delay " << delaySeconds << " / period " << periodSeconds;
  const TimerId id =
      timers_.push(nowSeconds() + delaySeconds, std::move(handler));
  // MCI-ANALYZE-ALLOW(hot-path-alloc): grows to the pool's high-water mark
  timerMeta_.resize(timers_.poolSlots());
  metaOf(id) = TimerMeta{id, periodSeconds, owner};
  armTimerFd();
  return TimerHandle{id};
}

bool Reactor::cancelTimer(TimerHandle handle) {
  // No re-arm: the timerfd firing early is a harmless wakeup.
  if (!timers_.cancel(handle.id)) return false;
  metaOf(handle.id).id = sim::kInvalidEventId;
  return true;
}

void Reactor::armTimerFd() {
  ::itimerspec spec{};  // all-zero disarms
  const double head = timers_.peekTime();
  if (head != sim::kTimeInfinity) {
    // Relative delay, at most a day (every wake re-reads the head, so a far
    // deadline cannot overflow the nanoseconds); timerfd treats {0,0} as
    // disarm, so clamp to 1ns to make a due deadline fire, not never.
    const double delta = std::clamp(head - nowSeconds(), 0.0, 86400.0);
    const auto ns = static_cast<long>(delta * 1e9);
    spec.it_value.tv_sec = static_cast<time_t>(ns / 1000000000L);
    spec.it_value.tv_nsec = std::max(ns % 1000000000L, long{1});
  }
  ::timerfd_settime(timerFd_, 0, &spec, nullptr);
}

void Reactor::fireDueTimers() {
  std::uint64_t expirations = 0;
  while (::read(timerFd_, &expirations, sizeof expirations) > 0) {
  }
  const double now = nowSeconds();
  while (timers_.peekTime() <= now) {
    timers_.fire([&](TimerId id, double deadline) {
      TimerMeta& t = metaOf(id);
      MCI_DCHECK(ownerLive(t.owner))
          << "timer " << id << " fired after owner " << t.owner
          << " was retired";
      if (t.period == 0) {
        t.id = sim::kInvalidEventId;
        return sim::kTimeInfinity;
      }
      // Catch up in whole periods so a stalled loop fires once, not a burst.
      double next = deadline;
      while (next <= now) next += t.period;
      return next;
    });
  }
  armTimerFd();
}

void Reactor::runOnce(int timeoutMs) {
  ::epoll_event events[64];
  const int n = ::epoll_wait(epollFd_, events, 64, timeoutMs);
  for (int i = 0; i < n; ++i) {
    const int fd = events[i].data.fd;
    if (fd == timerFd_) {
      fireDueTimers();
      continue;
    }
    // Re-check registration: an earlier handler in this batch may have
    // removed this fd.
    const auto it = fds_.find(fd);
    if (it == fds_.end()) continue;
    MCI_DCHECK(ownerLive(it->second.owner))
        << "fd " << fd << " handler dispatched after owner "
        << it->second.owner << " was retired";
    FdHandler handler = it->second.handler;  // copy: handler may remove itself
    handler(events[i].events);
  }
}

void Reactor::run() {
  running_ = true;
  while (running_) runOnce(-1);
}

}  // namespace mci::live
