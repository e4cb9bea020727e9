#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include "metrics/walltime.hpp"
#include "sim/event_queue.hpp"

namespace mci::live {

/// Single-threaded epoll event loop with timerfd-driven timers.
///
/// One epoll instance multiplexes every socket of a daemon plus exactly one
/// timerfd, armed to the head of one sim::EventQueue keyed on nowSeconds()
/// (the simulator's allocation-free queue; equal deadlines fire in
/// registration order). All callbacks run on the thread inside
/// run()/runOnce(); there is no locking anywhere in the live subsystem.
///
/// Handlers may freely add/remove fds and timers from within a callback
/// (removal of an fd whose event is already harvested suppresses the
/// pending dispatch).
///
/// Lifetime discipline: addFd/addTimer return [[nodiscard]] handles so
/// every registration has a named owner of its cancellation (the
/// callback-lifetime analysis pass matches registration -> removal by the
/// stored handle). Objects that register callbacks capturing `this` should
/// additionally tag registrations with an OwnerId from makeOwner() and
/// call retireOwner() at the end of their destructor: in MCI_ENABLE_DCHECKS
/// builds the reactor then aborts on any registration that outlives its
/// owner — the static rule's dynamic counterpart.
class Reactor {
 public:
  using FdHandler = std::function<void(std::uint32_t epollEvents)>;
  /// Captures must fit 64 bytes; more state goes in a struct by reference.
  using TimerHandler = sim::InlineFn;
  using TimerId = sim::EventId;
  /// Registration-owner generation; 0 = unowned (free-function callbacks
  /// whose captures outlive the reactor, e.g. main()-scope locals).
  using OwnerId = std::uint32_t;

  /// Proof of an fd registration; pass back to removeFd().
  struct [[nodiscard]] FdHandle {
    int fd = -1;
    [[nodiscard]] bool valid() const { return fd >= 0; }
  };

  /// Proof of a timer registration; pass back to cancelTimer().
  struct [[nodiscard]] TimerHandle {
    TimerId id = 0;
    [[nodiscard]] bool valid() const { return id != 0; }
  };

  Reactor();
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Mints a live owner generation for an object about to register
  /// callbacks that capture it.
  [[nodiscard]] OwnerId makeOwner();

  /// Declares every registration tagged `owner` dead. Call at the END of
  /// the owning object's destructor: in MCI_ENABLE_DCHECKS builds this
  /// aborts if any fd or timer tagged with `owner` is still registered
  /// (a callback that could fire into a destroyed object), and dispatch
  /// aborts on any callback whose owner was already retired.
  void retireOwner(OwnerId owner);

  /// Registers `fd` for `events` (EPOLLIN / EPOLLOUT / ...). The reactor
  /// does not own the fd: the live::Socket that does (frame_stream.hpp)
  /// takes the returned handle and removes it when it closes the fd.
  [[nodiscard]] FdHandle addFd(int fd, std::uint32_t events,
                               FdHandler handler, OwnerId owner = 0);

  /// Changes the interest mask of a registered fd (handler unchanged).
  void modifyFd(int fd, std::uint32_t events);

  void removeFd(int fd);
  void removeFd(FdHandle handle) { removeFd(handle.fd); }

  /// Schedules `handler` to fire `delaySeconds` from now; `periodSeconds`
  /// > 0 makes it periodic (one handle; a late one fires once, not a
  /// burst). Both must be finite and >= 0. Returns a cancelTimer() handle.
  [[nodiscard]] TimerHandle addTimer(double delaySeconds,
                                     double periodSeconds,
                                     TimerHandler handler, OwnerId owner = 0);

  /// Cancels a pending timer (a periodic one even from its own handler).
  /// Returns false if it already fired (one-shot) or was never valid.
  [[nodiscard]] bool cancelTimer(TimerHandle handle);

  /// Dispatches until stop() is called from within a handler.
  void run();

  /// One epoll_wait + dispatch round. `timeoutMs` < 0 waits indefinitely
  /// (capped by the next timer deadline via the timerfd).
  void runOnce(int timeoutMs);

  void stop() { running_ = false; }

  /// Wall seconds since the reactor was created (the deadline clock).
  [[nodiscard]] double nowSeconds() const { return clock_.seconds(); }

  [[nodiscard]] std::size_t fdCount() const { return fds_.size(); }
  [[nodiscard]] std::size_t timerCount() const { return timers_.size(); }
  /// Live fd + timer registrations tagged `owner` (teardown audit hook).
  [[nodiscard]] std::size_t ownedCount(OwnerId owner) const;

 private:
  struct FdEntry {
    FdHandler handler;
    OwnerId owner = 0;
  };

  /// What the queue does not hold of a pending timer, by queue slot.
  struct TimerMeta {
    TimerId id = sim::kInvalidEventId;  ///< invalid: no pending timer
    double period = 0;                  ///< 0 = one-shot
    OwnerId owner = 0;
  };

  void armTimerFd();
  void fireDueTimers();
  [[nodiscard]] TimerMeta& metaOf(TimerId id);
  [[nodiscard]] bool ownerLive(OwnerId owner) const {
    return owner == 0 || liveOwners_.count(owner) > 0;
  }

  int epollFd_ = -1;
  int timerFd_ = -1;
  bool running_ = false;
  metrics::WallTimer clock_;
  std::map<int, FdEntry> fds_;
  sim::EventQueue timers_;
  std::vector<TimerMeta> timerMeta_;  ///< one per queue slot
  std::set<OwnerId> liveOwners_;
  OwnerId nextOwnerId_ = 1;
};

}  // namespace mci::live
