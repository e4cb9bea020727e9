#pragma once

#include <cstdint>

#include "live/reactor.hpp"
#include "sim/time.hpp"

namespace mci::live {

/// Model-time view of a reactor's deadline clock.
///
/// A LiveClock owns no clock: model time is the reactor's nowSeconds()
/// times `timeScale`, on the tick grid of sim/time.hpp. Every server and
/// client pool on one reactor therefore shares one epoch — the shards of a
/// cluster, joiners included, read the same tick at the same instant, as
/// the cross-shard timestamp ordering requires — and a reactor over a
/// virtual clock moves model time and timer deadlines together.
///
/// `timeScale` compresses wall time: at scale s, one wall second is s model
/// seconds, which lets an integration test run "minutes" of broadcast
/// periods in real seconds. Latencies reported by the collector are model
/// seconds (wall deltas times the scale).
class LiveClock {
 public:
  /// `timeScale`: model seconds advanced per wall-clock second (> 0).
  LiveClock(const Reactor& reactor, double timeScale)
      : reactor_(&reactor), scale_(timeScale) {}

  /// Model milliseconds elapsed since the reactor was created.
  [[nodiscard]] std::uint64_t nowTick() const {
    return sim::toTick(reactor_->nowSeconds() * scale_);
  }

  /// Current model time (= nowTick() on the grid).
  [[nodiscard]] sim::SimTime nowModel() const {
    return sim::tickTime(nowTick());
  }

  /// Wall seconds a timer must wait to span `modelSeconds` of model time.
  [[nodiscard]] double wallDelay(double modelSeconds) const {
    return modelSeconds / scale_;
  }

 private:
  const Reactor* reactor_;
  double scale_;
};

}  // namespace mci::live
